package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seprivgemb/internal/spec"
)

// mgr builds a manager over dir with a controllable clock.
func mgr(t *testing.T, dir, id string, ttl time.Duration, now *time.Time) *Manager {
	t.Helper()
	m, err := NewManager(dir, id, ttl)
	if err != nil {
		t.Fatalf("NewManager(%q): %v", id, err)
	}
	if now != nil {
		m.now = func() time.Time { return *now }
	}
	return m
}

func TestNewManagerRejectsEmptyID(t *testing.T) {
	if _, err := NewManager(t.TempDir(), "", 0); err == nil {
		t.Fatal("empty replica id accepted")
	}
}

// TestAcquireExclusive is the grant contract: of two replicas contending
// for one job, exactly one wins, and the loser sees the winner on disk.
func TestAcquireExclusive(t *testing.T) {
	dir := t.TempDir()
	a := mgr(t, dir, "a", time.Minute, nil)
	b := mgr(t, dir, "b", time.Minute, nil)

	gotA, err := a.Acquire("j1234567890abcdef")
	if err != nil || !gotA {
		t.Fatalf("first Acquire = (%v, %v), want (true, nil)", gotA, err)
	}
	gotB, err := b.Acquire("j1234567890abcdef")
	if err != nil || gotB {
		t.Fatalf("contending Acquire = (%v, %v), want (false, nil)", gotB, err)
	}
	li, ok := b.Owner("j1234567890abcdef")
	if !ok || li.Replica != "a" {
		t.Fatalf("Owner = (%+v, %v), want replica a", li, ok)
	}
	if held := a.Held(); len(held) != 1 || held[0].Job != "j1234567890abcdef" {
		t.Fatalf("a.Held() = %+v, want the one lease", held)
	}
	if held := b.Held(); len(held) != 0 {
		t.Fatalf("b.Held() = %+v, want none", held)
	}
}

// TestReacquireOwnLease covers a replica restarting under the same
// identity: its own live lease re-grants (and renews) rather than
// blocking it from its own job.
func TestReacquireOwnLease(t *testing.T) {
	dir := t.TempDir()
	a := mgr(t, dir, "a", time.Minute, nil)
	for i := 0; i < 2; i++ {
		ok, err := a.Acquire("jfedcba9876543210")
		if err != nil || !ok {
			t.Fatalf("Acquire #%d = (%v, %v), want (true, nil)", i+1, ok, err)
		}
	}
}

// TestExpiredTakeover is the crash-recovery contract: a lease whose
// ExpiresAt has passed is dead, and a peer takes the job over.
func TestExpiredTakeover(t *testing.T) {
	dir := t.TempDir()
	past := time.Now().Add(-time.Hour)
	crashed := mgr(t, dir, "crashed", 50*time.Millisecond, &past)
	if ok, err := crashed.Acquire("j0000000000000001"); err != nil || !ok {
		t.Fatalf("crashed Acquire = (%v, %v)", ok, err)
	}
	// "crashed" never heartbeats; wall-clock now is an hour past expiry.
	peer := mgr(t, dir, "peer", time.Minute, nil)
	ok, err := peer.Acquire("j0000000000000001")
	if err != nil || !ok {
		t.Fatalf("takeover Acquire = (%v, %v), want (true, nil)", ok, err)
	}
	li, found := peer.Owner("j0000000000000001")
	if !found || li.Replica != "peer" {
		t.Fatalf("post-takeover Owner = (%+v, %v), want peer", li, found)
	}
}

// TestCorruptLeaseTakeover: a writer that crashed mid-create leaves an
// unparsable lease; contenders treat it as stale rather than wedging the
// job forever.
func TestCorruptLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jdeadbeefdeadbeef.lease")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := mgr(t, dir, "a", time.Minute, nil)
	ok, err := a.Acquire("jdeadbeefdeadbeef")
	if err != nil || !ok {
		t.Fatalf("Acquire over corrupt lease = (%v, %v), want (true, nil)", ok, err)
	}
}

// TestRenewAndLoss: renewal pushes expiry forward; after a takeover the
// old owner's renew reports ErrLeaseLost and drops the lease from its
// book.
func TestRenewAndLoss(t *testing.T) {
	dir := t.TempDir()
	const job = "j00000000000000aa"
	now := time.Now()
	a := mgr(t, dir, "a", time.Minute, &now)
	if ok, _ := a.Acquire(job); !ok {
		t.Fatal("a could not acquire")
	}
	before, _ := a.Owner(job)
	now = now.Add(30 * time.Second)
	if err := a.Renew(job); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	after, _ := a.Owner(job)
	expB, _ := time.Parse(time.RFC3339Nano, before.ExpiresAt)
	expA, _ := time.Parse(time.RFC3339Nano, after.ExpiresAt)
	if !expA.After(expB) {
		t.Fatalf("Renew did not push expiry: %v then %v", expB, expA)
	}
	if after.RenewedAt == "" {
		t.Fatal("renewed lease carries no RenewedAt")
	}

	// A peer takes over (stall simulated by jumping the shared clock past
	// the TTL).
	now = now.Add(2 * time.Minute)
	b := mgr(t, dir, "b", time.Minute, &now)
	if ok, _ := b.Acquire(job); !ok {
		t.Fatal("b could not take over the expired lease")
	}
	if err := a.Renew(job); err != ErrLeaseLost {
		t.Fatalf("Renew after takeover = %v, want ErrLeaseLost", err)
	}
	if held := a.Held(); len(held) != 0 {
		t.Fatalf("a still lists %+v after losing the lease", held)
	}
}

// TestKeepAlive: the heartbeat keeps a short-TTL lease continuously live
// well past several lifetimes.
func TestKeepAlive(t *testing.T) {
	dir := t.TempDir()
	const job = "j00000000000000bb"
	a := mgr(t, dir, "a", 60*time.Millisecond, nil)
	if ok, _ := a.Acquire(job); !ok {
		t.Fatal("acquire failed")
	}
	stop := a.KeepAlive(job)
	defer stop()
	time.Sleep(250 * time.Millisecond) // > 4 TTLs
	li, ok := a.Owner(job)
	if !ok || li.Replica != "a" {
		t.Fatalf("lease lost under heartbeat: (%+v, %v)", li, ok)
	}
	exp, err := time.Parse(time.RFC3339Nano, li.ExpiresAt)
	if err != nil || !time.Now().Before(exp) {
		t.Fatalf("lease expired under heartbeat: ExpiresAt %s (%v)", li.ExpiresAt, err)
	}
	stop()
	stop() // idempotent
}

// TestReleaseRemovesOwnLeaseOnly: release clears our lease file, but
// never a peer's — even when we still believe the job is ours.
func TestReleaseRemovesOwnLeaseOnly(t *testing.T) {
	dir := t.TempDir()
	const job = "j00000000000000cc"
	a := mgr(t, dir, "a", time.Minute, nil)
	if ok, _ := a.Acquire(job); !ok {
		t.Fatal("acquire failed")
	}
	a.Release(job)
	if _, err := os.Stat(filepath.Join(dir, job+".lease")); !os.IsNotExist(err) {
		t.Fatalf("lease file survived Release: %v", err)
	}

	// Now: a acquires, a stalls, b takes over, a releases — b's lease must
	// survive.
	now := time.Now()
	a2 := mgr(t, dir, "a", time.Minute, &now)
	if ok, _ := a2.Acquire(job); !ok {
		t.Fatal("re-acquire failed")
	}
	later := now.Add(2 * time.Minute)
	b := mgr(t, dir, "b", time.Minute, &later)
	if ok, _ := b.Acquire(job); !ok {
		t.Fatal("takeover failed")
	}
	a2.Release(job)
	li, ok := b.Owner(job)
	if !ok || li.Replica != "b" {
		t.Fatalf("peer lease removed by stale Release: (%+v, %v)", li, ok)
	}
}

// TestSweepDir: expired leases go unconditionally; live leases stay;
// tmp partials and rename-aside debris go only past maxAge.
func TestSweepDir(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()

	writeLease := func(name, replica string, expires time.Time) {
		li := spec.LeaseInfo{
			Job: name, Replica: replica,
			AcquiredAt: now.Add(-time.Hour).UTC().Format(time.RFC3339Nano),
			ExpiresAt:  expires.UTC().Format(time.RFC3339Nano),
		}
		data, _ := json.Marshal(li)
		if err := os.WriteFile(filepath.Join(dir, name+".lease"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeLease("j00000000000000d1", "dead", now.Add(-time.Minute)) // expired
	writeLease("j00000000000000d2", "live", now.Add(time.Hour))    // live

	old := filepath.Join(dir, "jaaaaaaaaaaaaaaaa-degree.result.gob.tmp")
	if err := os.WriteFile(old, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := now.Add(-2 * time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	young := filepath.Join(dir, "jbbbbbbbbbbbbbbbb-degree.result.gob.tmp")
	if err := os.WriteFile(young, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	leases, tmps, err := SweepDir(dir, time.Hour, now)
	if err != nil {
		t.Fatalf("SweepDir: %v", err)
	}
	if leases != 1 || tmps != 1 {
		t.Fatalf("SweepDir removed (leases=%d, tmps=%d), want (1, 1)", leases, tmps)
	}
	if _, err := os.Stat(filepath.Join(dir, "j00000000000000d2.lease")); err != nil {
		t.Fatalf("live lease swept: %v", err)
	}
	if _, err := os.Stat(young); err != nil {
		t.Fatalf("young tmp swept: %v", err)
	}

	// maxAge <= 0: only provably expired leases, never tmp files.
	writeLease("j00000000000000d3", "dead", now.Add(-time.Minute))
	leases, tmps, err = SweepDir(dir, 0, now)
	if err != nil || leases != 1 || tmps != 0 {
		t.Fatalf("SweepDir(0) = (%d, %d, %v), want (1, 0, nil)", leases, tmps, err)
	}
}

func TestPollIntervalClamp(t *testing.T) {
	for _, tc := range []struct {
		ttl, want time.Duration
	}{
		{4 * time.Millisecond, 10 * time.Millisecond}, // floor
		{40 * time.Second, 1 * time.Second},           // ceiling
		{2 * time.Second, 500 * time.Millisecond},     // ttl/4
	} {
		m := mgr(t, t.TempDir(), "a", tc.ttl, nil)
		if got := m.PollInterval(); got != tc.want {
			t.Errorf("PollInterval(ttl=%v) = %v, want %v", tc.ttl, got, tc.want)
		}
	}
}

// TestAcquireContention hammers jobs from several managers at once:
// however the races fall, at most one replica may believe it holds a
// lease, and the on-disk owner must be the winner. Several rounds over
// fresh job IDs, because the historical failure mode — a peer reading a
// half-written grant, mistaking it for a crashed writer, and stealing it
// out from under the live owner — needed scheduler pressure to show up.
func TestAcquireContention(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	managers := make([]*Manager, n)
	for i := range managers {
		managers[i] = mgr(t, dir, string(rune('a'+i)), time.Minute, nil)
	}
	for round := 0; round < 25; round++ {
		job := fmt.Sprintf("j%016x", 0xee0+round)
		wins := make(chan string, n)
		done := make(chan struct{})
		for _, m := range managers {
			go func(m *Manager) {
				defer func() { done <- struct{}{} }()
				ok, err := m.Acquire(job)
				if err != nil {
					t.Errorf("Acquire(%s): %v", m.ID(), err)
					return
				}
				if ok {
					wins <- m.ID()
				}
			}(m)
		}
		for i := 0; i < n; i++ {
			<-done
		}
		close(wins)
		var winners []string
		for w := range wins {
			winners = append(winners, w)
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d replicas won the lease (%v), want exactly 1", round, len(winners), winners)
		}
		li, ok := managers[0].Owner(job)
		if !ok || li.Replica != winners[0] {
			t.Fatalf("round %d: disk owner %+v disagrees with winner %s", round, li, winners[0])
		}
	}
	// The grant's staging files must never outlive Acquire, win or lose.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") || strings.Contains(e.Name(), ".stale-") {
			t.Errorf("stray staging file left behind: %s", e.Name())
		}
	}
}

// TestWriteFileAtomicFailureKeepsPrevious: a writer that fails midway
// leaves the previous file byte-for-byte intact and no ".tmp" behind.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.result.gob")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("previous"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
		t.Fatalf("previous file now %q (err %v), want it intact", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: stat err = %v", err)
	}
}
