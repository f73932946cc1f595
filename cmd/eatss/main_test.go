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
const runAsCommandEnv = "EATSS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommandEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs the command with args and returns its exit code and stderr.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsCommandEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("eatss %v: %v", args, err)
	return 0, ""
}

// Bad flag values and flag combinations are usage errors: exit 2 with
// a message naming the problem, before any work.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "gemm", "-gpu", "foo"}, `unknown GPU "foo"`},
		{[]string{"-kernel", "gemm", "-best", "-explain"}, "-best does not use -explain"},
		{[]string{"-kernel", "gemm", "-best", "-split", "0.3", "-cuda"}, "-best does not use -cuda, -split"},
		{[]string{"-kernel", "gemm", "-split", "2"}, "-split 2 is outside [0, 1]"},
	} {
		code, stderr := run(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("eatss %v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.want)
		}
	}
}

// Flags -best does use still run, and a failure after the flags were
// accepted stays exit 1.
func TestBestAcceptsItsFlags(t *testing.T) {
	if code, stderr := run(t, "-kernel", "gemm", "-best", "-fp32", "-gpu", "v100"); code != 0 {
		t.Fatalf("eatss -best -fp32 -gpu v100: exit %d\n%s", code, stderr)
	}
	if code, _ := run(t, "-kernel", "nosuch"); code != 1 {
		t.Fatalf("eatss -kernel nosuch: exit %d, want 1", code)
	}
}
