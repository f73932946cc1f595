package used

// Run is called from the command.
func Run() {}
