package verify_test

import (
	"testing"

	"fixture/internal/core"
	"fixture/internal/verify"
)

// A test file may cross-check against what it certifies.
func TestCross(t *testing.T) { verify.Check(core.Select()) }
