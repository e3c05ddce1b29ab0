//go:build !amd64

package mathx

// UseAVX512 is the amd64 kernel selection; there are no kernels on this
// architecture, so it stays false and the Go loops run.
var UseAVX512 = false

// scaledWide leaves every element to the caller's Go loop.
func scaledWide(dst, x []float64, f, c float64, add bool) int { return 0 }
