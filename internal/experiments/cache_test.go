package experiments

import (
	"sync"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

func TestMemoDatasetSharing(t *testing.T) {
	m := NewMemo()
	a, err := m.Dataset("chameleon", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Dataset("chameleon", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached dataset not shared (distinct pointers for one key)")
	}
	c, err := m.Dataset("chameleon", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different dataset seeds share one cache entry")
	}
}

func TestMemoProximitySharing(t *testing.T) {
	m := NewMemo()
	g, err := m.Dataset("power", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Proximity(g, "deepwalk", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Proximity(g, "deepwalk", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached proximity not shared")
	}
	if _, ok := a.(*proximity.Sparse); !ok {
		t.Errorf("cached proximity is %T, want materialized *proximity.Sparse", a)
	}
	// The materialized matrix must agree with the lazy measure everywhere.
	direct := proximity.NewDeepWalk(g)
	for i := 0; i < g.NumNodes(); i += 7 {
		for j := 0; j < g.NumNodes(); j += 11 {
			if a.At(i, j) != direct.At(i, j) {
				t.Fatalf("cached At(%d,%d) = %g, direct %g", i, j, a.At(i, j), direct.At(i, j))
			}
		}
	}
	if _, err := m.Proximity(g, "no-such-measure", 1); err == nil {
		t.Error("unknown measure did not error through the cache")
	}
}

func TestMemoForeignGraphFallsBack(t *testing.T) {
	m := NewMemo()
	foreign := graph.BarabasiAlbert(40, 2, xrand.New(3))
	p, err := m.Proximity(foreign, "deepwalk", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*proximity.Sparse); ok {
		t.Error("foreign graph was materialized; expected the lazy measure")
	}
}

// TestMemoConcurrent hammers one key from many goroutines: every caller
// must observe the same pointer and the generator must run exactly once.
func TestMemoConcurrent(t *testing.T) {
	m := NewMemo()
	const goroutines = 16
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = make(map[*graph.Graph]bool)
	)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			g, err := m.Dataset("chameleon", 0.05, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Proximity(g, "degree", 1); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seen[g] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != 1 {
		t.Errorf("%d distinct graphs for one key, want 1", len(seen))
	}
}

func TestMemoDatasetCanonicalScale(t *testing.T) {
	m := NewMemo()
	// scale <= 0 selects the dataset default; both spellings must share one
	// simulation.
	a, err := m.Dataset("power", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Dataset("power", 1, 3) // power's DefaultScale is 1
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("default scale and its explicit value produced distinct cache entries")
	}
	if _, err := m.Dataset("no-such-dataset", 1, 3); err == nil {
		t.Error("unknown dataset did not error")
	}
	// Memo-managed graphs materialize through Proximity.
	p, err := m.Proximity(a, "deepwalk", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*proximity.Sparse); !ok {
		t.Errorf("Proximity returned %T, want materialized *proximity.Sparse", p)
	}
}
