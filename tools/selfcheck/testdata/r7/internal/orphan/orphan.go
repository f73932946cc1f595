package orphan

// Unused has no importer at all.
func Unused() {}
