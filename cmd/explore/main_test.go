package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsCommandEnv, when set, makes the test binary run main() instead
// of the tests, so a test can run the command as a subprocess and read
// its real exit code (go run reports every failure as exit 1).
const runAsCommandEnv = "EXPLORE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommandEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An unknown -gpu or -evaluator is a usage error: exit 2 with a message
// naming the value, before any work.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "gemm", "-gpu", "foo"}, `unknown GPU "foo"`},
		{[]string{"-kernel", "gemm", "-evaluator", "foo"}, `unknown evaluator "foo"`},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runAsCommandEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("explore %v: %v, stderr %q; want exit 2 naming %q", tc.args, err, stderr.String(), tc.want)
		}
	}
}
