//go:build !amd64

package mathx

// UseAVX512 is the amd64 kernel selection; there are no kernels on this
// architecture, so it stays false and the Go loops run.
var UseAVX512 = false

// scaledWide leaves every element to the caller's Go loop.
func scaledWide(dst, x []float64, f, c float64, add bool) int { return 0 }

// dotRowsWide leaves every row to the caller's Go loop.
func dotRowsWide(out *[8]float64, x []float64, rows [][]float64) (k, n int) { return 0, 0 }

// scaledNorm2SqWide leaves every coefficient to the caller's Go loop.
func scaledNorm2SqWide(out *[8]float64, coef, x []float64, m float64) (k, n int) { return 0, 0 }

// axpyRowsWide leaves every element to the caller's Go loop.
func axpyRowsWide(dst, coef []float64, rows [][]float64) (n int, sq float64) { return 0, 0 }
