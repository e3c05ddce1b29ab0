//go:build !amd64

package xrand

// noisyStepWide leaves every coordinate to NoisyStep's Go loop.
func (s Stream) noisyStepWide(dst, g []float64, lr, sd float64) int { return 0 }
