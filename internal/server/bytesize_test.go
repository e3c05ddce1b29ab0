package server

import "testing"

func TestParseByteSize(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1024", 1024},
		{"64B", 64},
		{"4KiB", 4096},
		{"4kib", 4096},
		{"4K", 4096},
		{"4KB", 4000},
		{"256MiB", 256 << 20},
		{" 256 MiB ", 256 << 20},
		{"256MB", 256_000_000},
		{"1.5GiB", 3 << 29},
		{"2G", 2 << 30},
		{"2GB", 2_000_000_000},
		{"1TiB", 1 << 40},
		{"1TB", 1_000_000_000_000},
	}
	for _, tc := range good {
		got, err := ParseByteSize(tc.in)
		if err != nil {
			t.Errorf("ParseByteSize(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	bad := []string{"", "MiB", "-1", "-5MiB", "1XB", "1.2.3K", "10 bananas",
		"9223372036854775807", "8388608TiB", "1e400"}
	for _, in := range bad {
		if got, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want error", in, got)
		}
	}
}

// FuzzParseByteSize: any input either errors or parses to a non-negative
// size — never a wrapped negative int64.
func FuzzParseByteSize(f *testing.F) {
	for _, s := range []string{"0", "4KiB", "1.5GiB", "9223372036854775807", "8388608TiB", "-1", "1e400", "0x1p62"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, err := ParseByteSize(s); err == nil && got < 0 {
			t.Fatalf("ParseByteSize(%q) = %d with nil error", s, got)
		}
	})
}
