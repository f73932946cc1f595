package testonly

// Check is imported only from a test file.
func Check() {}
