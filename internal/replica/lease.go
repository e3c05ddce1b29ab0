// Package replica coordinates a shared-nothing replica set through the
// artifact directory: N server instances point at one directory, and job
// ownership — the right to train a given job ID — is leased through
// atomic lease files in that directory. There is no other channel between
// replicas: the filesystem (create-exclusive, atomic rename) is the whole
// consensus substrate, which is exactly as much coordination as a
// deterministic trainer needs. The protocol:
//
//	Acquire    — stage the lease body in a private temp file and link(2)
//	             it to <jobID>.lease. The link is atomic and fails EEXIST,
//	             so exactly one replica wins AND the lease file can never
//	             be observed half-written (a create-then-write grant has a
//	             window where a peer reads an empty lease, mistakes it for
//	             a crashed writer's corpse, and steals a live owner's
//	             grant). The body is the spec.LeaseInfo JSON (owner,
//	             acquired/renewed/expires timestamps).
//	Heartbeat  — the owner renews the lease (atomic tmp+rename rewrite)
//	             every TTL/3 while it trains, pushing ExpiresAt forward.
//	Takeover   — a lease whose ExpiresAt has passed is dead (the owner
//	             crashed or stalled). A contender atomically renames the
//	             stale file aside — only one renamer can win — removes
//	             it, and competes on a fresh create-exclusive.
//
// Split-brain is possible by design and benign by design: if an owner
// stalls past its TTL and a peer takes over, both may finish training the
// same job. Training is bit-deterministic — same key, same bits — and
// artifact writes are atomic renames, so the last writer wins with an
// identical file. The lease is a work-deduplication mechanism, not a
// safety mechanism; correctness never depends on it.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"seprivgemb/internal/spec"
)

// DefaultTTL is the lease lifetime when the caller does not choose one:
// long enough that a heartbeat every TTL/3 survives scheduling hiccups
// and slow fsyncs, short enough that a crashed owner's jobs are retrained
// within seconds.
const DefaultTTL = 15 * time.Second

// ErrLeaseLost reports a renewal that found the lease owned by someone
// else: this replica stalled past the TTL and a peer took the job over.
// The holder should keep training (determinism makes the duplicate
// harmless) but must not assume exclusive ownership afterwards.
var ErrLeaseLost = errors.New("replica: lease taken over by another replica")

// Manager leases job ownership for one replica over one shared artifact
// directory. Construct with NewManager; the zero value is not usable.
// All methods are safe for concurrent use.
type Manager struct {
	dir string
	id  string
	ttl time.Duration

	// now is the clock, swappable in tests.
	now func() time.Time

	mu   sync.Mutex
	held map[string]spec.LeaseInfo // leases this replica currently owns
}

// NewManager returns a lease manager for replica `id` over `dir` (created
// if needed — it is the same directory the artifact store uses). ttl <= 0
// takes DefaultTTL. The id must be non-empty; it lands in lease files and
// health reports, so pick something an operator can trace to a process.
func NewManager(dir, id string, ttl time.Duration) (*Manager, error) {
	if id == "" {
		return nil, fmt.Errorf("replica: empty replica id")
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{
		dir:  dir,
		id:   id,
		ttl:  ttl,
		now:  time.Now,
		held: make(map[string]spec.LeaseInfo),
	}, nil
}

// ID returns the replica identity this manager leases as.
func (m *Manager) ID() string { return m.id }

// TTL returns the lease lifetime.
func (m *Manager) TTL() time.Duration { return m.ttl }

// PollInterval is how often a non-owner should re-check the store and the
// lease while following a job another replica owns: a quarter TTL, so a
// crashed owner's expiry is noticed within a fraction of the takeover
// window, clamped to [10ms, 1s] so tiny test TTLs do not busy-spin and
// huge production TTLs do not turn result pickup sluggish.
func (m *Manager) PollInterval() time.Duration {
	p := m.ttl / 4
	if p < 10*time.Millisecond {
		p = 10 * time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// leasePath places a job's lease file. Job IDs are "j"+16 hex by
// construction (service.JobID); sanitizing anyway keeps a hand-crafted ID
// from escaping the directory.
func (m *Manager) leasePath(jobID string) string {
	return filepath.Join(m.dir, sanitize(jobID)+".lease")
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// info builds this replica's lease body for jobID, freshly timestamped.
func (m *Manager) info(jobID string, acquired time.Time) spec.LeaseInfo {
	now := m.now()
	li := spec.LeaseInfo{
		Job:        jobID,
		Replica:    m.id,
		AcquiredAt: acquired.UTC().Format(time.RFC3339Nano),
		ExpiresAt:  now.Add(m.ttl).UTC().Format(time.RFC3339Nano),
	}
	if !now.Equal(acquired) {
		li.RenewedAt = now.UTC().Format(time.RFC3339Nano)
	}
	return li
}

// Acquire tries to become the owner of jobID. It returns true when this
// replica holds the lease on return — a fresh grant, a re-grant of a
// lease this replica already held (renewal in place, covering a restart
// under the same identity), or a takeover of an expired lease. It returns
// false when a live lease belongs to someone else. Errors are I/O-level
// only; contention is never an error.
func (m *Manager) Acquire(jobID string) (bool, error) {
	path := m.leasePath(jobID)
	// Bounded retries: each loop iteration either wins, observes a live
	// owner, or loses a takeover race to a peer (who then IS the live
	// owner next iteration). Five attempts outlasts any realistic pile-up
	// without risking a livelock spin on a pathological filesystem.
	for attempt := 0; attempt < 5; attempt++ {
		ok, err := m.tryCreate(jobID, path)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		li, err := readLease(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // released or swept between our create and read; retry
			}
			// Unreadable or corrupt lease (a writer crashed mid-create):
			// treat as stale and contend for takeover.
			m.steal(path)
			continue
		}
		if li.Replica == m.id {
			// Our own lease from a previous life: renew in place.
			if err := m.writeLease(jobID, path, parseTimeOr(li.AcquiredAt, m.now())); err != nil {
				return false, err
			}
			return true, nil
		}
		exp, err := time.Parse(time.RFC3339Nano, li.ExpiresAt)
		if err == nil && m.now().Before(exp) {
			return false, nil // live lease, someone else's job
		}
		// Expired (or undated): contend for takeover, then loop back to
		// the create-exclusive — a third replica may still beat us there,
		// which the next iteration observes as a live lease.
		m.steal(path)
	}
	return false, nil
}

// tryCreate attempts the exclusive grant. The lease must appear
// atomically and fully written: a peer that reads a half-written lease
// cannot tell it from a crashed writer's corpse and would steal it out
// from under a live owner — both would then return true from Acquire. So
// the payload is staged in a private temp file (the janitor's ".tmp"
// namespace, in case we crash here) and link(2)ed into place: the link
// either materializes the complete file or fails with EEXIST.
func (m *Manager) tryCreate(jobID, path string) (bool, error) {
	li := m.info(jobID, m.now())
	data, err := json.Marshal(li)
	if err != nil {
		return false, err
	}
	f, err := os.CreateTemp(m.dir, sanitize(jobID)+".lease.grant-*.tmp")
	if err != nil {
		return false, err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return false, werr
	}
	lerr := os.Link(tmp, path)
	os.Remove(tmp)
	if lerr != nil {
		if os.IsExist(lerr) {
			return false, nil
		}
		return false, lerr
	}
	if err := syncDir(m.dir); err != nil {
		// The grant may not survive a crash; undo it rather than train
		// under a lease peers could later find missing.
		os.Remove(path)
		return false, err
	}
	m.mu.Lock()
	m.held[jobID] = li
	m.mu.Unlock()
	return true, nil
}

// steal renames a (presumed stale) lease aside and removes it. The rename
// is the atomic arbiter: of N concurrent stealers exactly one succeeds;
// the losers report false and re-observe the directory. The winner does
// NOT own the job yet — it merely cleared the corpse and must still win
// the create-exclusive.
func (m *Manager) steal(path string) bool {
	aside := path + ".stale-" + sanitize(m.id)
	if err := os.Rename(path, aside); err != nil {
		return false
	}
	os.Remove(aside)
	return true
}

// writeLease atomically replaces jobID's lease with a freshly-stamped one
// owned by this replica (WriteFileAtomic).
func (m *Manager) writeLease(jobID, path string, acquired time.Time) error {
	li := m.info(jobID, acquired)
	data, err := json.Marshal(li)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return err
	}
	m.mu.Lock()
	m.held[jobID] = li
	m.mu.Unlock()
	return nil
}

// WriteFileAtomic replaces path with the bytes write produces: it writes a
// sibling ".tmp" file, fsyncs it, renames it over path, and fsyncs the
// directory so the rename itself survives a crash — once it returns nil,
// the new file is durable. On any failure the temp file is removed and
// path keeps its previous contents; a crash mid-write leaves the ".tmp"
// partial for SweepDir to reap.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so the renames and links into it survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Renew pushes the owned lease's expiry forward. ErrLeaseLost means a
// peer took the job over after this replica stalled past its TTL; any
// other error is I/O.
func (m *Manager) Renew(jobID string) error {
	path := m.leasePath(jobID)
	li, err := readLease(path)
	if err != nil || li.Replica != m.id {
		m.mu.Lock()
		delete(m.held, jobID)
		m.mu.Unlock()
		return ErrLeaseLost
	}
	return m.writeLease(jobID, path, parseTimeOr(li.AcquiredAt, m.now()))
}

// KeepAlive renews jobID's lease every TTL/3 on a background goroutine
// until the returned stop function is called (idempotent, waits for the
// goroutine to exit). A lost lease stops the heartbeat silently: the
// caller keeps training — determinism makes the duplicate harmless — and
// discovers the takeover, if it cares, via Held or the health endpoint.
func (m *Manager) KeepAlive(jobID string) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	interval := m.ttl / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := m.Renew(jobID); err != nil {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Release drops jobID's lease if this replica owns it. Best-effort: a
// lease already taken over (or swept) is simply forgotten locally.
func (m *Manager) Release(jobID string) {
	path := m.leasePath(jobID)
	m.mu.Lock()
	_, ours := m.held[jobID]
	delete(m.held, jobID)
	m.mu.Unlock()
	if !ours {
		return
	}
	// Re-verify on disk before removing: after a stall the file may
	// belong to a peer now, and removing THEIR live lease would let a
	// third replica start a pointless duplicate.
	if li, err := readLease(path); err == nil && li.Replica == m.id {
		os.Remove(path)
	}
}

// Owner reports the current lease for jobID as recorded on disk, false
// when none exists or the file is unreadable.
func (m *Manager) Owner(jobID string) (spec.LeaseInfo, bool) {
	li, err := readLease(m.leasePath(jobID))
	if err != nil {
		return spec.LeaseInfo{}, false
	}
	return li, true
}

// Held returns the leases this replica believes it owns, sorted by job ID
// — the health endpoint's lease listing. "Believes": a stalled replica
// may list a lease a peer has already taken over; the next Renew corrects
// the book.
func (m *Manager) Held() []spec.LeaseInfo {
	m.mu.Lock()
	out := make([]spec.LeaseInfo, 0, len(m.held))
	for _, li := range m.held {
		out = append(out, li)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

func readLease(path string) (spec.LeaseInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return spec.LeaseInfo{}, err
	}
	var li spec.LeaseInfo
	if err := json.Unmarshal(data, &li); err != nil {
		return spec.LeaseInfo{}, fmt.Errorf("replica: corrupt lease %s: %w", path, err)
	}
	return li, nil
}

func parseTimeOr(s string, fallback time.Time) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return fallback
	}
	return t
}

// SweepDir is the artifact-directory janitor: it removes dead lease files
// (expired, or unreadable and older than maxAge) and orphaned ".tmp"
// partials older than maxAge — the debris of crashed writers. It is
// called on service startup and by `sepriv admin gc`. maxAge guards
// against reaping an in-flight writer's tmp file or a lease mid-create;
// maxAge <= 0 means "only provably expired leases, no tmp files".
// Removal races with live replicas are benign: a swept expired lease is
// exactly what a takeover would have cleared.
func SweepDir(dir string, maxAge time.Duration, now time.Time) (leases, tmps int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, ".lease"):
			li, rerr := readLease(path)
			if rerr == nil {
				exp, perr := time.Parse(time.RFC3339Nano, li.ExpiresAt)
				if perr == nil && now.Before(exp) {
					continue // live
				}
				if perr != nil && !olderThan(e, maxAge, now) {
					continue // undated but young: give its writer a chance
				}
			} else if !olderThan(e, maxAge, now) {
				continue // unreadable but young
			}
			if os.Remove(path) == nil {
				leases++
			}
		case strings.HasSuffix(name, ".tmp") || strings.Contains(name, ".lease.stale-"):
			if maxAge <= 0 || !olderThan(e, maxAge, now) {
				continue
			}
			if os.Remove(path) == nil {
				tmps++
			}
		}
	}
	return leases, tmps, nil
}

func olderThan(e os.DirEntry, maxAge time.Duration, now time.Time) bool {
	if maxAge <= 0 {
		return false
	}
	fi, err := e.Info()
	if err != nil {
		return false
	}
	return now.Sub(fi.ModTime()) > maxAge
}
