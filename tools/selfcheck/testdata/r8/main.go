package main

import (
	"fixture/internal/core"
	"fixture/internal/verify"
)

// main may call the certifier: certification is a post-hoc call.
func main() { verify.Check(core.Select()) }
