package affine

// Kernel is the IR both sides share.
type Kernel struct{}
