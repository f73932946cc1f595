package main

import "fixture/internal/used"

func main() { used.Run() }
