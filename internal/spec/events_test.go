package spec

import (
	"encoding/json"
	"testing"
	"time"

	"seprivgemb/internal/core"
)

// The replica-set wire shapes are a compatibility contract twice over:
// JobEvent crosses the SSE transport to external clients, and LeaseInfo
// is the on-disk lease file layout every replica in a mixed-version set
// must agree on. These goldens pin the exact JSON so a field rename or
// tag typo fails loudly here instead of silently desynchronizing a set.

func TestJobEventGoldenJSON(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   JobEvent
		want string
	}{
		{
			name: "epoch",
			ev: JobEvent{
				Type: "epoch", Job: "j0011223344556677", Seq: 3,
				Progress: &ProgressInfo{
					Epoch: 4, Loss: 0.25, EpsSpent: 1.5, DeltaSpent: 1e-6, ElapsedMs: 120,
					Stages: &StageInfo{SubgraphsMs: 1.5, EdgeWeightsMs: 0.5, GradientsMs: 80.25, ReduceMs: 10, UpdateMs: 4},
				},
			},
			want: `{"type":"epoch","job":"j0011223344556677","seq":3,"progress":{"epoch":4,"loss":0.25,"epsSpent":1.5,"deltaSpent":0.000001,"elapsedMs":120,"stages":{"subgraphsMs":1.5,"edgeWeightsMs":0.5,"gradientsMs":80.25,"reduceMs":10,"updateMs":4}}}`,
		},
		{
			name: "done",
			ev: JobEvent{
				Type: "done", Job: "j0011223344556677", Seq: 9,
				Status: "done", EmbeddingHash: "00deadbeef001122",
			},
			want: `{"type":"done","job":"j0011223344556677","seq":9,"status":"done","embeddingHash":"00deadbeef001122"}`,
		},
		{
			name: "failed",
			ev: JobEvent{
				Type: "failed", Job: "j0011223344556677", Seq: 2,
				Status: "failed", Error: "boom",
			},
			want: `{"type":"failed","job":"j0011223344556677","seq":2,"status":"failed","error":"boom"}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.want {
				t.Errorf("JobEvent JSON drifted:\n got %s\nwant %s", data, tc.want)
			}
			var back JobEvent
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("round-trip: %v", err)
			}
			if back.Type != tc.ev.Type || back.Seq != tc.ev.Seq || back.Job != tc.ev.Job {
				t.Errorf("round-trip lost identity: %+v", back)
			}
		})
	}
}

func TestJobEventTerminal(t *testing.T) {
	for typ, want := range map[string]bool{
		"epoch": false, "done": true, "failed": true, "canceled": true, "": false,
	} {
		if got := (JobEvent{Type: typ}).Terminal(); got != want {
			t.Errorf("Terminal(%q) = %v, want %v", typ, got, want)
		}
	}
}

func TestLeaseInfoGoldenJSON(t *testing.T) {
	li := LeaseInfo{
		Job:        "j0011223344556677",
		Replica:    "replica-a",
		AcquiredAt: "2026-08-08T10:00:00Z",
		RenewedAt:  "2026-08-08T10:00:05Z",
		ExpiresAt:  "2026-08-08T10:00:20Z",
	}
	want := `{"job":"j0011223344556677","replica":"replica-a","acquiredAt":"2026-08-08T10:00:00Z","renewedAt":"2026-08-08T10:00:05Z","expiresAt":"2026-08-08T10:00:20Z"}`
	data, err := json.Marshal(li)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Errorf("LeaseInfo JSON drifted:\n got %s\nwant %s", data, want)
	}
	// A never-renewed lease omits renewedAt entirely.
	li.RenewedAt = ""
	data, _ = json.Marshal(li)
	if string(data) != `{"job":"j0011223344556677","replica":"replica-a","acquiredAt":"2026-08-08T10:00:00Z","expiresAt":"2026-08-08T10:00:20Z"}` {
		t.Errorf("unrenewed LeaseInfo JSON drifted: %s", data)
	}
}

func TestHealthzResponseGoldenJSON(t *testing.T) {
	// Single-instance mode: the replica fields must vanish, keeping the
	// pre-replica healthz body byte-identical.
	data, err := json.Marshal(HealthzResponse{Status: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"status":"ok"}` {
		t.Errorf("bare healthz drifted: %s", data)
	}
	full := HealthzResponse{
		Status:  "ok",
		Replica: "replica-a",
		Leases: []LeaseInfo{{
			Job: "j0011223344556677", Replica: "replica-a",
			AcquiredAt: "2026-08-08T10:00:00Z", ExpiresAt: "2026-08-08T10:00:20Z",
		}},
	}
	data, _ = json.Marshal(full)
	want := `{"status":"ok","replica":"replica-a","leases":[{"job":"j0011223344556677","replica":"replica-a","acquiredAt":"2026-08-08T10:00:00Z","expiresAt":"2026-08-08T10:00:20Z"}]}`
	if string(data) != want {
		t.Errorf("replica healthz drifted:\n got %s\nwant %s", data, want)
	}
}

// TestProgressFrom pins the one EpochStats→wire conversion both the
// polled job view and the streamed epoch event share.
func TestProgressFrom(t *testing.T) {
	st := core.EpochStats{
		Epoch: 7, Loss: 0.5, EpsSpent: 2.25, DeltaSpent: 1e-5,
		Elapsed: 1500 * time.Millisecond,
		Stages: core.StageTimings{
			Subgraphs:   2 * time.Millisecond,
			EdgeWeights: 40 * time.Millisecond,
			Gradients:   1200 * time.Millisecond,
			Reduce:      150 * time.Microsecond,
			Update:      3 * time.Millisecond,
		},
	}
	p := ProgressFrom(st)
	if p.Epoch != 7 || p.Loss != 0.5 || p.EpsSpent != 2.25 || p.DeltaSpent != 1e-5 {
		t.Errorf("scalar fields: %+v", p)
	}
	if p.ElapsedMs != 1500 {
		t.Errorf("ElapsedMs = %d, want 1500", p.ElapsedMs)
	}
	if p.Stages == nil || p.Stages.EdgeWeightsMs != 40 || p.Stages.GradientsMs != 1200 || p.Stages.ReduceMs != 0.15 {
		t.Errorf("stage timings: %+v", p.Stages)
	}
}
