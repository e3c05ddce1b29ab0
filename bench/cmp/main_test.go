package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles([1..10], n=4)
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// With three runs the quartiles are the extremes and the median.
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [
		{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1}]}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, lat, ops float64) string {
		r := map[string]any{"workload": "w", "trace": 0, "metrics": map[string]any{
			"lat_ms": map[string]any{"value": lat, "unit": "ms"},
			"ops":    map[string]any{"value": ops, "unit": "1/s"},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := []string{write("a1", 100, 10), write("a2", 101, 10.1), write("a3", 99, 9.9)}
	same := []string{write("b1", 100.5, 10), write("b2", 99.5, 10.05), write("b3", 100, 9.95)}
	slow := []string{write("c1", 120, 10), write("c2", 121, 10), write("c3", 119, 10)}
	noisy := []string{write("d1", 80, 10), write("d2", 100, 10), write("d3", 125, 10)}

	cmp := func(a, b []string) (int, string) {
		var out bytes.Buffer
		args := append([]string{"-spec", specPath}, a...)
		args = append(append(args, "--"), b...)
		code := run(args, &out, &out)
		return code, out.String()
	}
	if code, out := cmp(a, same); code != 0 || !strings.Contains(out, "0 regressions, 0 unresolved") {
		t.Errorf("same code: exit %d\n%s", code, out)
	}
	if code, out := cmp(a, slow); code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Errorf("20%% slower: exit %d, want 1 and a regression\n%s", code, out)
	}
	if code, out := cmp(a, noisy); code != 0 || !strings.Contains(out, "1 unresolved") {
		t.Errorf("spread wider than the bound: exit %d, want 0 and unresolved\n%s", code, out)
	}
}
