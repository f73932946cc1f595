package main

import (
	"testing"

	"fixture/internal/testonly"
)

func TestOracle(t *testing.T) { testonly.Check() }
