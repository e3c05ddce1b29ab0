// Command sepriv trains SE-PrivGEmb on a graph and evaluates or exports
// the resulting differentially private embedding.
//
// Usage:
//
//	sepriv -graph edges.txt [flags]            # train on an edge-list file
//	sepriv -dataset chameleon -scale 0.1 ...   # train on a simulated dataset
//
// Flags mirror Algorithm 2's hyperparameters; defaults are the paper's
// settings. With -out the embedding is written as TSV (node id then r
// values per line); with -eval both downstream metrics are reported.
// `-method` swaps the trainer for one of the reproduced DP baselines
// (dpggan, dpgvae, gap, progap); those reuse the shared hyperparameter
// flags but reject -checkpoint, -naive, and -non-private, which only
// apply to the paper's algorithm.
//
// Training runs as a cancellable session: SIGINT/SIGTERM stops at the next
// epoch boundary and still reports the partial embedding, its privacy
// spend, and — with -checkpoint — a snapshot file from which a later
// invocation resumes bit-identically (same flags, same file).
//
// `sepriv serve [flags]` runs the HTTP job service instead: training
// requests arrive as declarative JSON JobSpecs on POST /v1/jobs and are
// queued, deduplicated, and optionally persisted across restarts. See
// internal/server.
//
// `sepriv fetch -addr URL -job ID [-rows lo:hi] [-out f.tsv]` retrieves a
// finished job's embedding from such a server as TSV — one explicit row
// window with -rows, or the whole matrix paged through the server's range
// cursor so neither side ever materializes more than a page. With -json it
// emits the server's wire response verbatim (one JSON object) for scripts.
//
// `sepriv sweep -addr URL -spec sweep.json [-watch] [-format tsv|markdown]`
// submits a whole comparison grid — (graph × method × ε × seed), the
// paper's evaluation shape — as one SweepSpec, waits for it, and prints the
// aggregated mean±std table. Cells deduplicate against prior jobs and
// sweeps, so repeating a grid never retrains. See internal/sweep.
//
// `sepriv admin gc -artifact-dir DIR [-max-age 1h]` runs the shared-store
// janitor offline: expired job-ownership leases and orphaned write
// partials are reaped. See internal/replica.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"seprivgemb"
	"seprivgemb/internal/replica"
	"seprivgemb/internal/server"
)

// stopProfiles finishes any pprof captures started in main. It is a
// package variable so every exit path — normal return, fail(), and the
// explicit os.Exit(130) after SIGINT (which skips defers) — can flush the
// profiles; the installed function is idempotent.
var stopProfiles = func() {}

func main() {
	// Subcommand dispatch ahead of flag parsing: `sepriv serve`,
	// `sepriv fetch`, and `sepriv sweep` hand the remaining arguments to
	// the shared server CLI (the server, its row-range fetch client, and
	// the sweep client).
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(server.Main(os.Args[2:], os.Stdout, os.Stderr))
		case "fetch":
			os.Exit(server.FetchMain(os.Args[2:], os.Stdout, os.Stderr))
		case "sweep":
			os.Exit(server.SweepMain(os.Args[2:], os.Stdout, os.Stderr))
		case "admin":
			os.Exit(server.AdminMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	var (
		graphPath  = flag.String("graph", "", "edge-list file to train on")
		dataset    = flag.String("dataset", "", "simulated dataset name (alternative to -graph)")
		scale      = flag.Float64("scale", 0.1, "dataset scale when using -dataset")
		method     = flag.String("method", seprivgemb.DefaultMethod, "training method: "+methodList())
		proxName   = flag.String("prox", "deepwalk", "structure preference (deepwalk, degree, cn, pa, aa, ra, katz, pagerank)")
		dim        = flag.Int("dim", 128, "embedding dimension r")
		k          = flag.Int("k", 5, "negative sampling number")
		batch      = flag.Int("batch", 128, "batch size B")
		epochs     = flag.Int("epochs", 200, "maximum training epochs")
		lr         = flag.Float64("lr", 0.1, "learning rate eta")
		clip       = flag.Float64("clip", 2, "gradient clipping threshold C")
		sigma      = flag.Float64("sigma", 5, "Gaussian noise multiplier")
		eps        = flag.Float64("eps", 3.5, "privacy budget epsilon")
		delta      = flag.Float64("delta", 1e-5, "privacy parameter delta")
		naive      = flag.Bool("naive", false, "use the naive Eq. (6) perturbation instead of non-zero Eq. (9)")
		nonPriv    = flag.Bool("non-private", false, "train the non-private SE-GEmb counterpart")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "goroutines for the parallel training and evaluation stages (results are seed-deterministic at any count)")
		memBudget  = flag.String("mem-budget", "", "bound the run's resident weight-state bytes, e.g. 256MiB: rows spill to a temp file and results stay bit-identical (empty = in-memory)")
		ckptPath   = flag.String("checkpoint", "", "checkpoint file: resumed from when it exists, written on interrupt or completion")
		progress   = flag.Int("progress", 0, "print loss and privacy spend every N epochs (0 disables)")
		outPath    = flag.String("out", "", "write the embedding as TSV to this file")
		doEval     = flag.Bool("eval", true, "evaluate StrucEqu and link-prediction AUC")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file on exit (kernel-level perf attribution without a rebuild)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	stopProfiles = stopProf
	defer stopProfiles()
	var (
		ckptWriteErr error // last snapshot write failure, nil once one succeeds
		ckptWritten  = -1  // epoch of the last successfully written snapshot
	)

	methodName, err := seprivgemb.CanonicalMethod(*method)
	if err != nil {
		fail(err)
	}
	if methodName != seprivgemb.DefaultMethod {
		// The baselines have neither resumable state nor the Eq. (6)/(9)
		// strategy split, and they are private by construction — refuse
		// the flags that only make sense for the paper's algorithm rather
		// than silently ignoring them.
		switch {
		case *ckptPath != "":
			fail(fmt.Errorf("-checkpoint is only supported by the default %q method (%s has no resumable state)",
				seprivgemb.DefaultMethod, methodName))
		case *naive:
			fail(fmt.Errorf("-naive selects an SE-PrivGEmb perturbation strategy; it does not apply to %s", methodName))
		case *nonPriv:
			fail(fmt.Errorf("%s has no non-private variant; drop -non-private", methodName))
		case *memBudget != "":
			fail(fmt.Errorf("-mem-budget selects the out-of-core spill tier, which only the default %q method supports", seprivgemb.DefaultMethod))
		}
	}

	g, err := loadGraph(*graphPath, *dataset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: |V|=%d |E|=%d mean degree %.2f\n",
		g.NumNodes(), g.NumEdges(), g.MeanDegree())

	prox, err := seprivgemb.NewProximity(*proxName, g)
	if err != nil {
		fail(err)
	}
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = *dim
	cfg.K = *k
	cfg.BatchSize = *batch
	cfg.MaxEpochs = *epochs
	cfg.LearningRate = *lr
	cfg.Clip = *clip
	cfg.Sigma = *sigma
	cfg.Epsilon = *eps
	cfg.Delta = *delta
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Private = !*nonPriv
	if *memBudget != "" {
		b, err := server.ParseByteSize(*memBudget)
		if err != nil {
			fail(fmt.Errorf("-mem-budget: %w", err))
		}
		cfg.MemoryBudget = b
	}
	if *naive {
		cfg.Strategy = seprivgemb.StrategyNaive
	}
	if methodName == seprivgemb.DefaultMethod && cfg.BatchSize > g.NumEdges() {
		// Baselines sample nodes, not edges, and clamp to |V| themselves.
		cfg.BatchSize = g.NumEdges()
		fmt.Printf("note: batch clamped to |E| = %d\n", cfg.BatchSize)
	}
	if methodName != seprivgemb.DefaultMethod {
		fmt.Printf("method: %s\n", methodName)
	}

	opts := []seprivgemb.Option{
		seprivgemb.WithConfig(cfg),
		seprivgemb.WithMethod(methodName),
	}
	if *progress > 0 {
		every := *progress
		opts = append(opts, seprivgemb.WithEpochHook(func(st seprivgemb.EpochStats) {
			if (st.Epoch+1)%every == 0 {
				// The stage clocks are cumulative; print them alongside the
				// total so a drifting stage split is visible mid-run.
				fmt.Printf("epoch %4d: loss %.4f  eps-spent %.4f  (%.1fs: subgraphs %.1fs weights %.1fs grad %.1fs reduce %.1fs update %.1fs)\n",
					st.Epoch+1, st.Loss, st.EpsSpent, st.Elapsed.Seconds(),
					st.Stages.Subgraphs.Seconds(), st.Stages.EdgeWeights.Seconds(),
					st.Stages.Gradients.Seconds(), st.Stages.Reduce.Seconds(),
					st.Stages.Update.Seconds())
			}
		}))
	}
	if *ckptPath != "" {
		if ck, err := readCheckpoint(*ckptPath); err != nil {
			fail(err)
		} else if ck != nil {
			fmt.Printf("resuming from %s (epoch %d)\n", *ckptPath, ck.Epoch)
			opts = append(opts, seprivgemb.WithResume(ck))
		}
		// Persist snapshots as they are taken — every 50 epochs, on
		// interrupt, and at the final boundary — so a crash loses at most
		// one cadence of work.
		path := *ckptPath
		opts = append(opts, seprivgemb.WithCheckpointEvery(50, func(ck *seprivgemb.Checkpoint) {
			if err := writeCheckpoint(path, ck); err != nil {
				ckptWriteErr = err
				fmt.Fprintf(os.Stderr, "sepriv: writing checkpoint: %v\n", err)
			} else {
				ckptWriteErr = nil
				ckptWritten = ck.Epoch
			}
		}))
	}

	// SIGINT/SIGTERM cancels the session at the next epoch boundary; the
	// partial result below still prints, and -checkpoint preserves it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	res, err := seprivgemb.NewSession(g, prox, opts...).Run(ctx)
	// Restore default signal handling right away: a second Ctrl-C during
	// the (possibly long) evaluation below should kill the process, not
	// be swallowed by the still-registered handler.
	stop()
	if err != nil {
		fail(err)
	}
	interrupted := res.Stopped == seprivgemb.StopCanceled
	if interrupted {
		fmt.Printf("interrupted after %d epochs (partial embedding follows)\n", res.Epochs)
	} else {
		fmt.Printf("trained %d epochs (stopped: %v)\n", res.Epochs, res.Stopped)
	}
	if cfg.Private {
		fmt.Printf("privacy spent: eps=%.4f at delta=%g (delta-hat %.2e at target eps)\n",
			res.EpsilonSpent, cfg.Delta, res.DeltaSpent)
	}
	switch {
	case *ckptPath != "" && ckptWriteErr != nil:
		fmt.Fprintf(os.Stderr, "sepriv: checkpoint NOT saved (last write failed: %v)\n", ckptWriteErr)
	case *ckptPath != "" && res.Checkpoint != nil && ckptWritten == res.Checkpoint.Epoch:
		fmt.Printf("checkpoint at epoch %d written to %s (rerun with the same flags to resume)\n",
			ckptWritten, *ckptPath)
	}

	if *doEval {
		se := seprivgemb.StrucEquWorkers(g, res.Embedding(), *workers)
		fmt.Printf("StrucEqu: %.4f\n", se)
		split, err := seprivgemb.SplitLinkPrediction(g, 0.1, seprivgemb.NewRNG(*seed))
		if err == nil {
			auc := seprivgemb.LinkAUCWorkers(split, seprivgemb.EmbeddingScorer(res.Embedding()), *workers)
			fmt.Printf("link-prediction AUC (same embedding, 10%% held out): %.4f\n", auc)
		}
	}

	if *outPath != "" {
		if err := writeTSV(*outPath, res.Embedding()); err != nil {
			fail(err)
		}
		fmt.Printf("embedding written to %s\n", *outPath)
	}
	if interrupted {
		// os.Exit skips defers; flush the profiles first so a profiled run
		// interrupted at an epoch boundary still yields usable pprof files.
		stopProfiles()
		os.Exit(130)
	}
}

// startProfiles begins the requested pprof captures and returns an
// idempotent finisher that stops the CPU profile and snapshots the heap.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "sepriv: closing CPU profile: %v\n", err)
				}
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "sepriv: writing heap profile: %v\n", err)
					return
				}
				runtime.GC() // materialize up-to-date allocation stats
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "sepriv: writing heap profile: %v\n", err)
				}
				f.Close()
			}
		})
	}, nil
}

func loadGraph(path, dataset string, scale float64, seed uint64) (*seprivgemb.Graph, error) {
	switch {
	case path != "" && dataset != "":
		return nil, fmt.Errorf("sepriv: use -graph or -dataset, not both")
	case path != "":
		return seprivgemb.LoadGraph(path)
	case dataset != "":
		return seprivgemb.GenerateDataset(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("sepriv: one of -graph or -dataset is required")
	}
}

// readCheckpoint loads a resume snapshot, returning (nil, nil) when the
// file does not exist yet (a fresh run that will create it).
func readCheckpoint(path string) (*seprivgemb.Checkpoint, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return seprivgemb.DecodeCheckpoint(f, fi.Size())
}

// writeCheckpoint replaces path atomically and durably
// (replica.WriteFileAtomic), so a crash mid-write leaves the previous good
// snapshot intact — the "lose at most one cadence" guarantee depends on
// never truncating in place — and a snapshot reported written survives a
// crash.
func writeCheckpoint(path string, ck *seprivgemb.Checkpoint) error {
	return replica.WriteFileAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		if err := ck.Encode(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

func writeTSV(path string, emb *seprivgemb.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < emb.Rows; i++ {
		fmt.Fprintf(w, "%d", i)
		for _, v := range emb.Row(i) {
			fmt.Fprintf(w, "\t%.6g", v)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// methodList renders the registry for the -method flag's help text, with
// the default marked.
func methodList() string {
	var b []byte
	for i, m := range seprivgemb.Methods() {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, m.Name...)
		if m.Default {
			b = append(b, " (default)"...)
		}
	}
	return string(b)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sepriv: %v\n", err)
	stopProfiles()
	os.Exit(1)
}
