// Command benchtables regenerates every table and figure of the paper's
// evaluation section on the simulated GA100 and Xavier testbeds, as
// text tables or as the CSV series behind them.
//
// Usage:
//
//	benchtables                  # everything
//	benchtables -only fig7       # one experiment
//	benchtables -gpu xavier      # restrict GPU where applicable
//	benchtables -list            # list experiment ids
//	benchtables -csv figdata     # write the CSV series instead
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	eatss "repro"

	"repro/internal/bench"
	"repro/internal/cli"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	gpuName := flag.String("gpu", "ga100", "GPU for single-GPU experiments: ga100 | xavier | v100")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "write the selected experiments' CSV series into this directory instead of printing tables")
	listen := cli.ListenFlag()
	cli.SetUsage("benchtables", "regenerate the tables and figures of the paper's evaluation section",
		"benchtables                  # everything",
		"benchtables -only fig7       # one experiment",
		"benchtables -gpu xavier      # restrict GPU where applicable",
		"benchtables -list            # list experiment ids",
		"benchtables -csv figdata     # CSV series behind every figure",
		"benchtables -listen :8080    # watch long sweeps at /progress")
	flag.Parse()
	defer cli.Serve(*listen)()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	g, err := eatss.GPUByName(*gpuName)
	if err != nil {
		cli.Usagef("%v", err)
	}
	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	exps, err := bench.Select(ids)
	if err != nil {
		cli.Usagef("%v (use -list)", err)
	}

	if *csvDir == "" {
		for _, e := range exps {
			fmt.Printf("### %s: %s\n\n", e.ID, e.Desc)
			text, _ := e.Run(g)
			fmt.Println(text)
		}
		return
	}

	// Run everything before writing anything, so a selection naming an
	// experiment without CSV series fails without leaving partial output.
	var series []bench.CSV
	var noCSV []string
	for _, e := range exps {
		_, s := e.Run(g)
		if len(s) == 0 {
			noCSV = append(noCSV, e.ID)
		}
		series = append(series, s...)
	}
	if ids != nil && len(noCSV) > 0 {
		cli.Usagef("no CSV series for %s", strings.Join(noCSV, ", "))
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		cli.Fatal(err)
	}
	for _, s := range series {
		path := filepath.Join(*csvDir, s.Name)
		if err := writeFile(path, s.Write); err != nil {
			cli.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
