package main

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tinyArgs are the smallest settings that exercise every experiment inside
// the unit-test budget.
var tinyArgs = []string{"-scale", "0.03", "-seeds", "1", "-epochs", "8", "-epochs-lp", "10", "-baseline-epochs", "3", "-dim", "12"}

var allOutputs sync.Map // workers → output of -exp all at tinyArgs

// runAll returns the output of every experiment at tinyArgs, failing the
// test on any error — including a single failed cell.
func runAll(t *testing.T, workers int) string {
	t.Helper()
	if out, ok := allOutputs.Load(workers); ok {
		return out.(string)
	}
	var out, errw bytes.Buffer
	args := append([]string{"-exp", "all", "-workers", strconv.Itoa(workers)}, tinyArgs...)
	if err := run(context.Background(), args, &out, &errw); err != nil {
		t.Fatalf("-exp all -workers %d: %v\n%s", workers, err, errw.String())
	}
	allOutputs.Store(workers, out.String())
	return out.String()
}

// section returns the table of graph within the experiment titled title.
func section(t *testing.T, out, title, graph string) string {
	t.Helper()
	i := strings.Index(out, "## "+title)
	if i < 0 {
		t.Fatalf("no experiment %q in output", title)
	}
	exp := out[i+3:]
	if end := strings.Index(exp, "\n## "); end >= 0 {
		exp = exp[:end]
	}
	j := strings.Index(exp, "### "+graph+" ")
	if j < 0 {
		t.Fatalf("%s: no table for %s", title, graph)
	}
	tab := exp[j+4:]
	if end := strings.Index(tab, "\n### "); end >= 0 {
		tab = tab[:end]
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	if len(order) != len(registry) {
		t.Fatalf("%d experiments in the run order, %d registered", len(order), len(registry))
	}
	for _, id := range order {
		if _, ok := registry[id]; !ok {
			t.Errorf("registry missing %q", id)
		}
	}
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "nope"}, &out, &errw); !errors.Is(err, errUsage) {
		t.Fatalf("unknown -exp: %v, want a usage error", err)
	}
}

// TestTableExperimentsProduceRows: every table prints, with zero failed
// cells (runAll fails on any), the swept hyperparameter in each row label
// and mean±std cells.
func TestTableExperimentsProduceRows(t *testing.T) {
	out := runAll(t, 1)
	for _, c := range []struct{ title, row string }{
		{"Table II:", "| SE-PrivGEmbDeg B=32 |"},
		{"Table III:", "| SE-PrivGEmbDW η=0.01 |"},
		{"Table IV:", "| SE-PrivGEmbDW C=1 |"},
		{"Table V:", "| SE-PrivGEmbDW k=1 |"},
		{"Table VI:", "| SE-PrivGEmbDeg naive |"},
	} {
		for _, graph := range []string{"arxiv@0.03/1", "chameleon@0.03/1", "power@0.03/1"} {
			tab := section(t, out, c.title, graph)
			if !strings.Contains(tab, c.row) {
				t.Errorf("%s %s misses row %q:\n%s", c.title, graph, c.row, tab)
			}
			if !strings.Contains(tab, "±") {
				t.Errorf("%s %s has no mean±std cells", c.title, graph)
			}
		}
	}
	if !strings.Contains(section(t, out, "Table VI:", "chameleon@0.03/1"), "| ε=0.5 |") {
		t.Error("Table VI misses its ε=0.5 column")
	}
}

// TestFigureExperimentsProduceSeries: Figure 3 plots all eight methods over
// the full ε axis on every dataset; Figure 4 is scored by link prediction.
func TestFigureExperimentsProduceSeries(t *testing.T) {
	out := runAll(t, 1)
	for _, graph := range []string{"arxiv@0.03/1", "blogcatalog@0.03/1", "chameleon@0.03/1", "dblp@0.0003/1", "power@0.03/1", "ppi@0.03/1"} {
		fig3 := section(t, out, "Figure 3:", graph)
		for _, m := range []string{"DPGGAN", "DPGVAE", "GAP", "ProGAP", "SE-GEmbDW", "SE-PrivGEmbDW", "SE-GEmbDeg", "SE-PrivGEmbDeg"} {
			if !strings.Contains(fig3, "| "+m+" |") {
				t.Errorf("figure 3 %s misses method %q", graph, m)
			}
		}
		for _, col := range []string{"| ε=0.5 |", "| ε=3.5 |"} {
			if !strings.Contains(fig3, col) {
				t.Errorf("figure 3 %s misses column %q", graph, col)
			}
		}
	}
	for _, graph := range []string{"arxiv@0.03/1", "chameleon@0.03/1", "power@0.03/1"} {
		if !strings.Contains(section(t, out, "Figure 4:", graph), "(linkauc)") {
			t.Errorf("figure 4 %s is not scored by link prediction", graph)
		}
	}
}

// TestAblationExperimentsComplete: the negative-sampling ablation compares
// both samplers on every dataset, and the accountant ablation prints the
// RDP and naive ε side by side.
func TestAblationExperimentsComplete(t *testing.T) {
	out := runAll(t, 1)
	for _, graph := range []string{"arxiv@0.03/1", "chameleon@0.03/1", "power@0.03/1"} {
		tab := section(t, out, "Ablation: negative-sampling", graph)
		for _, row := range []string{"| uniform (Thm 3) |", "| degree (Eq. 15) |"} {
			if !strings.Contains(tab, row) {
				t.Errorf("negative-sampling ablation %s misses %q", graph, row)
			}
		}
	}
	i := strings.Index(out, "## Ablation: RDP accountant")
	if i < 0 {
		t.Fatal("output misses the accountant ablation")
	}
	acct := out[i:]
	for _, want := range []string{"| epochs | RDP ε (Thm 4+5) | naive ε |", "| 1 |", "| 2000 |"} {
		if !strings.Contains(acct, want) {
			t.Errorf("accountant ablation misses %q:\n%s", want, acct)
		}
	}
}

// TestSweepOutputWorkerInvariant: every printed number is identical at any
// worker count, because every cell owns its seed.
func TestSweepOutputWorkerInvariant(t *testing.T) {
	if runAll(t, 1) != runAll(t, 3) {
		t.Fatal("output at 3 workers differs from 1 worker")
	}
}

// TestParentValues pins Table VI and the negative-sampling ablation to the
// values the earlier bespoke harness printed at these settings: routing
// the experiments through the service changed no number.
//
// Migration note (one-counter ziggurat normals): the private Table VI
// rows were re-pinned when xrand.Stream.NormalAt moved from Box–Muller
// pairs to a one-counter ziggurat. The noise distribution is unchanged;
// its realization is not.
// The old values: arxiv DW naive -0.1063/-0.0340/-0.0891, DW non-zero
// 0.1892/0.3223/0.2913, Deg non-zero 0.1893/0.3221/0.2911; chameleon DW
// non-zero 0.0118/0.0547/0.0547, Deg non-zero 0.0112/0.0551/0.0551; power
// DW naive -0.0509/0.0127/0.0365, Deg non-zero 0.0303/0.0384/0.0647. The
// ablation rows train without noise and did not move.
func TestParentValues(t *testing.T) {
	out := runAll(t, 1)
	for _, c := range []struct{ title, graph, row string }{
		{"Table VI:", "arxiv@0.03/1", "| SE-PrivGEmbDW naive | 0.0263±0.0000 | 0.0471±0.0000 | 0.0469±0.0000 |"},
		{"Table VI:", "arxiv@0.03/1", "| SE-PrivGEmbDW non-zero | 0.2580±0.0000 | 0.4313±0.0000 | 0.3962±0.0000 |"},
		{"Table VI:", "arxiv@0.03/1", "| SE-PrivGEmbDeg non-zero | 0.2583±0.0000 | 0.4308±0.0000 | 0.3961±0.0000 |"},
		{"Table VI:", "chameleon@0.03/1", "| SE-PrivGEmbDW non-zero | 0.0101±0.0000 | 0.0035±0.0000 | 0.0035±0.0000 |"},
		{"Table VI:", "chameleon@0.03/1", "| SE-PrivGEmbDeg non-zero | 0.0104±0.0000 | 0.0037±0.0000 | 0.0037±0.0000 |"},
		{"Table VI:", "power@0.03/1", "| SE-PrivGEmbDW naive | 0.0081±0.0000 | 0.0798±0.0000 | 0.0414±0.0000 |"},
		{"Table VI:", "power@0.03/1", "| SE-PrivGEmbDeg non-zero | 0.0440±0.0000 | 0.0744±0.0000 | 0.0293±0.0000 |"},
		{"Ablation: negative-sampling", "chameleon@0.03/1", "| uniform (Thm 3) | 0.5247±0.0000 |"},
		{"Ablation: negative-sampling", "chameleon@0.03/1", "| degree (Eq. 15) | 0.5404±0.0000 |"},
		{"Ablation: negative-sampling", "power@0.03/1", "| uniform (Thm 3) | 0.1658±0.0000 |"},
		{"Ablation: negative-sampling", "power@0.03/1", "| degree (Eq. 15) | 0.1818±0.0000 |"},
		{"Ablation: negative-sampling", "arxiv@0.03/1", "| uniform (Thm 3) | 0.2535±0.0000 |"},
		{"Ablation: negative-sampling", "arxiv@0.03/1", "| degree (Eq. 15) | 0.2810±0.0000 |"},
	} {
		if tab := section(t, out, c.title, c.graph); !strings.Contains(tab, c.row) {
			t.Errorf("%s %s misses %q:\n%s", c.title, c.graph, c.row, tab)
		}
	}
}

// TestClampBatch: Table II stars the batch sizes the service clamps to a
// graph's |E| and keeps the legend order (B=128 before B=1024).
func TestClampBatch(t *testing.T) {
	tab := section(t, runAll(t, 1), "Table II:", "power@0.03/1")
	for _, want := range []string{"| SE-PrivGEmbDW B=32 |", "| SE-PrivGEmbDW B=1024* |"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Table II power misses %q:\n%s", want, tab)
		}
	}
	if strings.Index(tab, "B=128") > strings.Index(tab, "B=1024") {
		t.Errorf("B=1024 printed before B=128:\n%s", tab)
	}
}
