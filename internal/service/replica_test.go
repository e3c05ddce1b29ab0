package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"seprivgemb/internal/replica"
	"seprivgemb/internal/spec"
)

// replicaService stands up one member of a replica set: its own Service
// (own memo, own queue) with a lease manager over the shared dir.
func replicaService(t *testing.T, dir, id string, ttl time.Duration) *Service {
	t.Helper()
	mgr, err := replica.NewManager(dir, id, ttl)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxWorkers: 2, ArtifactDir: dir, Replica: mgr})
	t.Cleanup(func() { s.CancelAll(); s.Close() })
	return s
}

// waitSpec submits sp and waits it to a result.
func waitSpec(t *testing.T, s *Service, sp spec.JobSpec) (*Job, uint64) {
	t.Helper()
	j, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return j, hash64(res.Embedding().Data)
}

// TestReplicaSetSingleTraining: a spec submitted to replica A and then to
// replica B over the same store trains exactly once in the whole set, and
// B serves the identical bits — both through its own job and through the
// by-ID path a third replica would use.
func TestReplicaSetSingleTraining(t *testing.T) {
	dir := t.TempDir()
	a := replicaService(t, dir, "a", 0)
	b := replicaService(t, dir, "b", 0)

	jA, hashA := waitSpec(t, a, ringSpec())
	jB, hashB := waitSpec(t, b, ringSpec())

	if jA.ID() != jB.ID() {
		t.Fatalf("same spec got different IDs across replicas: %s vs %s", jA.ID(), jB.ID())
	}
	if hashA != hashB {
		t.Fatalf("replicas served different bits: %016x vs %016x", hashA, hashB)
	}
	if total := a.Trainings() + b.Trainings(); total != 1 {
		t.Fatalf("replica set trained %d times, want exactly 1 (a=%d, b=%d)",
			total, a.Trainings(), b.Trainings())
	}

	// The by-ID store path: rows served with no Job and no key, exactly as
	// a replica that never saw the submission would serve them.
	winA, err := a.ResultRows(jA.ID(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := b.ArtifactMeta(jA.ID())
	if !ok {
		t.Fatal("ArtifactMeta miss for a persisted job")
	}
	if meta.Nodes != 20 || meta.Dim != 8 || meta.JobID != jA.ID() {
		t.Fatalf("artifact meta: %+v", meta)
	}
	winB, err := b.store.LoadRowsByID(jA.ID(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if hash64(winA.Rows.Data) != hash64(winB.Rows.Data) {
		t.Fatal("by-ID window diverges from the keyed window")
	}
	if winA.FullHash != winB.FullHash || winB.FullHash == 0 {
		t.Fatalf("full-matrix hashes diverge: %016x vs %016x", winA.FullHash, winB.FullHash)
	}
}

// TestReplicaRaceOneTrains is the two-process race condensed to one: two
// Services over one artifact dir race the same JobSpec concurrently.
// Exactly one may train (the lease arbitrates); both must finish with
// bit-identical embeddings. Run under -race in CI via `make race`.
func TestReplicaRaceOneTrains(t *testing.T) {
	dir := t.TempDir()
	a := replicaService(t, dir, "a", 0)
	b := replicaService(t, dir, "b", 0)

	var wg sync.WaitGroup
	hashes := make([]uint64, 2)
	for i, s := range []*Service{a, b} {
		wg.Add(1)
		go func(i int, s *Service) {
			defer wg.Done()
			_, hashes[i] = waitSpec(t, s, ringSpec())
		}(i, s)
	}
	wg.Wait()

	if hashes[0] != hashes[1] {
		t.Fatalf("racing replicas diverged: %016x vs %016x", hashes[0], hashes[1])
	}
	if total := a.Trainings() + b.Trainings(); total != 1 {
		t.Fatalf("race trained %d times, want exactly 1 (a=%d, b=%d)",
			total, a.Trainings(), b.Trainings())
	}
}

// TestReplicaLeaseRaceRechecksStore is the lease race without scheduling
// luck: replica b misses the store, and before its Acquire the peer a
// trains the job, saves the artifact and releases the lease. b then wins
// the free lease — and must serve a's artifact instead of training again.
func TestReplicaLeaseRaceRechecksStore(t *testing.T) {
	dir := t.TempDir()
	a := replicaService(t, dir, "a", 0)
	b := replicaService(t, dir, "b", 0)
	var peerErr error
	var once sync.Once
	b.beforeAcquire = func(*Job) {
		once.Do(func() {
			j, err := a.SubmitSpec(ringSpec())
			if err == nil {
				_, err = j.Wait(context.Background())
			}
			peerErr = err
		})
	}
	jB, hashB := waitSpec(t, b, ringSpec())
	if peerErr != nil {
		t.Fatal(peerErr)
	}
	_, hashA := waitSpec(t, a, ringSpec())
	if hashA != hashB {
		t.Fatalf("replicas served different bits: %016x vs %016x", hashA, hashB)
	}
	if a.Trainings() != 1 || b.Trainings() != 0 {
		t.Fatalf("trainings a=%d b=%d, want a=1 b=0: b retrained a job its peer had just finished",
			a.Trainings(), b.Trainings())
	}
	if _, held := b.ReplicaManager().Owner(jB.ID()); held {
		t.Fatal("b kept the lease after serving the peer's artifact")
	}
}

// TestReplicaTakeoverAfterOwnerCrash: the owner dies mid-train — modeled
// as a lease that was granted but will never be heartbeated — and a peer
// must wait out the TTL, take the lease over, retrain, and land on the
// bit-identical embedding.
func TestReplicaTakeoverAfterOwnerCrash(t *testing.T) {
	// Learn the job's identity and expected bits on a throwaway store.
	ref := replicaService(t, t.TempDir(), "ref", 0)
	jRef, wantHash := waitSpec(t, ref, ringSpec())

	dir := t.TempDir()
	// The "crashed" owner: grabs the lease with a short TTL and never
	// heartbeats — exactly what a kill -9 mid-train leaves behind.
	ghost, err := replica.NewManager(dir, "ghost", 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ghost.Acquire(jRef.ID()); err != nil || !ok {
		t.Fatalf("ghost Acquire = (%v, %v)", ok, err)
	}

	b := replicaService(t, dir, "b", 250*time.Millisecond)
	start := time.Now()
	jB, gotHash := waitSpec(t, b, ringSpec())
	if jB.ID() != jRef.ID() {
		t.Fatalf("job ID drifted across stores: %s vs %s", jB.ID(), jRef.ID())
	}
	if gotHash != wantHash {
		t.Fatalf("takeover retrained to %016x, want the reference %016x", gotHash, wantHash)
	}
	if b.Trainings() != 1 {
		t.Fatalf("peer trained %d times, want 1", b.Trainings())
	}
	// The peer must have actually waited for the ghost's lease to die, not
	// barged past a live lease.
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Fatalf("peer finished in %v — it cannot have honored the ghost's lease TTL", waited)
	}
	if li, ok := b.ReplicaManager().Owner(jRef.ID()); ok && li.Replica == "ghost" {
		t.Fatalf("ghost still owns the lease after takeover: %+v", li)
	}
}

// TestStartupSweepClearsExpiredLeases: constructing a Service over a dir
// littered with a dead replica's expired leases clears them (the startup
// janitor), so jobs are immediately acquirable.
func TestStartupSweepClearsExpiredLeases(t *testing.T) {
	dir := t.TempDir()
	ghost, err := replica.NewManager(dir, "ghost", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ghost.Acquire("j00000000000000ff"); !ok {
		t.Fatal("ghost acquire failed")
	}
	time.Sleep(5 * time.Millisecond) // let the 1ms lease expire

	s := replicaService(t, dir, "fresh", 0)
	if li, ok := s.ReplicaManager().Owner("j00000000000000ff"); ok {
		t.Fatalf("expired lease survived the startup sweep: %+v", li)
	}
}
