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

// TestMemoProximitySharing: what a dataset's jobs share through the Memo
// is the graph, never a proximity matrix. Proximity over the shared graph
// is the lazy measure itself, and it leaves no entry behind.
func TestMemoProximitySharing(t *testing.T) {
	m := NewMemo()
	g, err := m.Dataset("power", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Dataset("power", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatal("cached dataset not shared (distinct pointers for one key)")
	}
	p, err := m.Proximity(g, "deepwalk", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*proximity.DeepWalk); !ok {
		t.Errorf("Proximity returned %T, want the lazy *proximity.DeepWalk", p)
	}
	if _, err := m.Proximity(g, "no-such-measure", 1); err == nil {
		t.Error("unknown measure did not error")
	}
	if n := m.GraphCacheLen(); n != 1 {
		t.Errorf("GraphCacheLen = %d, want 1", n)
	}
}

// TestMemoForeignGraphFallsBack: a graph the Memo did not generate never
// enters it, and gets the same lazy measure a Memo graph gets.
func TestMemoForeignGraphFallsBack(t *testing.T) {
	m := NewMemo()
	foreign := graph.BarabasiAlbert(40, 2, xrand.New(3))
	p, err := m.Proximity(foreign, "deepwalk", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*proximity.DeepWalk); !ok {
		t.Errorf("Proximity returned %T, want the lazy *proximity.DeepWalk", p)
	}
	if n := m.GraphCacheLen(); n != 0 {
		t.Errorf("GraphCacheLen = %d after a foreign graph, want 0", n)
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
			mu.Lock()
			seen[g] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != 1 {
		t.Errorf("%d distinct graphs for one key, want 1", len(seen))
	}
	if n := m.GraphCacheLen(); n != 1 {
		t.Errorf("GraphCacheLen = %d, want 1", n)
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
	if n := m.GraphCacheLen(); n != 1 {
		t.Errorf("GraphCacheLen = %d, want 1 (one canonical key; the failed name adds none)", n)
	}
}

// TestMemoBoundedLRU: distinct seeds beyond the bound evict the least
// recently requested graph, so the cache stays bounded; a key requested
// again stays shared, and the evicted one is generated anew.
func TestMemoBoundedLRU(t *testing.T) {
	m := NewMemo()
	dataset := func(seed uint64) *graph.Graph {
		t.Helper()
		g, err := m.Dataset("chameleon", 0.02, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	first, second := dataset(0), dataset(1)
	for seed := uint64(2); seed < memoGraphs; seed++ {
		dataset(seed)
	}
	if dataset(0) != first { // now more recent than seed 1
		t.Fatal("a cached key was not shared")
	}
	last := dataset(memoGraphs)
	if n := m.GraphCacheLen(); n > memoGraphs {
		t.Fatalf("GraphCacheLen = %d after %d distinct seeds, want <= %d", n, memoGraphs+1, memoGraphs)
	}
	if dataset(memoGraphs) != last {
		t.Error("the most recent key did not return its cached graph")
	}
	if dataset(0) != first {
		t.Error("a recently requested key was evicted")
	}
	if dataset(1) == second {
		t.Error("the least recently requested key was not evicted")
	}
}
