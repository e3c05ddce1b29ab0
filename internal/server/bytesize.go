package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseByteSize parses a human-readable byte size for the memory flags
// (`sepriv -mem-budget`, `sepriv serve -max-train-mem`): a non-negative
// number with an optional unit suffix. Binary suffixes (KiB, MiB, GiB, TiB — and
// their single-letter shorthands K, M, G, T) multiply by powers of 1024;
// decimal suffixes (KB, MB, GB, TB) by powers of 1000; "B" or no suffix
// means bytes. Case does not matter and the mantissa may be fractional
// ("1.5GiB"); the result is rounded to a whole byte count.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	i := len(t)
	for i > 0 {
		c := t[i-1]
		if (c >= '0' && c <= '9') || c == '.' {
			break
		}
		i--
	}
	num := t[:i]
	unit := strings.ToLower(strings.TrimSpace(t[i:]))
	if num == "" {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	var mult float64
	switch unit {
	case "", "b":
		mult = 1
	case "k", "kib":
		mult = 1 << 10
	case "m", "mib":
		mult = 1 << 20
	case "g", "gib":
		mult = 1 << 30
	case "t", "tib":
		mult = 1 << 40
	case "kb":
		mult = 1e3
	case "mb":
		mult = 1e6
	case "gb":
		mult = 1e9
	case "tb":
		mult = 1e12
	default:
		return 0, fmt.Errorf("invalid byte size %q: unknown unit %q (want B, KiB/KB, MiB/MB, GiB/GB, or TiB/TB)", s, t[i:])
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	b := math.Round(v * mult)
	// 1<<63 is the first float64 above MaxInt64 (which rounds up to it),
	// so any b that is not strictly below it would wrap int64.
	if !(b < 1<<63) {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return int64(b), nil
}
