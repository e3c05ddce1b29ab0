package spec

import (
	"strings"
	"testing"
)

// The wire decoders face untrusted request bodies: whatever bytes arrive,
// Decode/DecodeSweep must return an error or a spec that passes
// Validate — never panic — and an accepted dataset source never asks for
// more than the dataset's own size (scale at most 1). The seeds are the
// valid and invalid bodies the HTTP server tests submit.

const wheelEdges = `[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,0],[0,6],[1,7],[2,8],[3,9]]`

var jobBodySeeds = []string{
	`{"graph":{"inline":{"nodes":12,"edges":` + wheelEdges + `}},"proximity":"degree","config":{"dim":8,"batchSize":8,"maxEpochs":4,"seed":1}}`,
	`{"graph":{"inline":{"nodes":12,"edges":` + wheelEdges + `}},"proximity":"degree","config":{"dim":8,"batchSize":8,"maxEpochs":2000000,"private":false,"seed":1},"tenant":"a"}`,
	`{`,
	`{"graph":{"inline":{"nodes":4,"edges":[[0,1],[1,2]]}},"proximity":"degree","config":{"seed":1,"epslion":2}}`,
	`{"proximity":"degree","config":{"seed":1}}`,
	`{"graph":{"dataset":{"name":"no-such","seed":1}},"proximity":"degree","config":{"seed":1}}`,
	`{"graph":{"inline":{"nodes":4,"edges":[[0,1],[1,2]]}},"proximity":"no-such","config":{"seed":1}}`,
	`{"graph":{"inline":{"nodes":2,"edges":[[1,1]]}},"proximity":"degree","config":{"seed":1}}`,
	`{"graph":{"inline":{"nodes":4000000000,"edges":[[0,1]]}},"proximity":"degree","config":{"seed":1}}`,
	`{"graph":{"file":{"path":"../x"}},"proximity":"degree","config":{"seed":1}}`,
	`{"graph":{"dataset":{"name":"chameleon","scale":1e9,"seed":1}},"proximity":"deepwalk","config":{"seed":1}}`,
}

var sweepBodySeeds = []string{
	`{"graphs":[{"inline":{"nodes":12,"edges":` + wheelEdges + `}},` +
		`{"inline":{"nodes":12,"edges":[[0,1],[0,2],[0,3],[0,4],[0,5],[0,6],[0,7],[0,8],[0,9],[0,10],[0,11],[1,2]]}}],` +
		`"methods":["sepriv","gap","progap"],"epsilons":[0.5,1.0],"seeds":[1,2],"proximity":"degree","config":{"dim":8,"batchSize":8,"maxEpochs":2}}`,
	`{"graphs":[{"inline":{"nodes":12,"edges":` + wheelEdges + `}}],"methods":["sepriv"],"epsilons":[0.5,1.0],"seeds":[1,2],` +
		`"proximity":"degree","config":{"dim":8,"batchSize":8,"maxEpochs":2000000,"private":false}}`,
	`{"graphs":[{"inline":{"nodes":3,"edges":[[0,1],[1,2]]}}],"methods":[],"epsilons":[1],"seeds":[1]}`,
	`{"graphs":[{"inline":{"nodes":3,"edges":[[0,1],[1,2]]}}],"methods":["sepriv"],"epsilons":[1],"seeds":[1],"bogus":true}`,
	`{"graphs":[{"inline":{"nodes":3,"edges":[[0,1],[1,2]]}}],"methods":["sepriv"],"epsilons":[1],"seeds":[1],"config":{"epsilon":2}}`,
	`nope`,
}

func FuzzDecodeJobSpec(f *testing.F) {
	for _, s := range jobBodySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := Decode(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Decode accepted a spec Validate rejects: %v", err)
		}
		if ds := s.Graph.Dataset; ds != nil && !(ds.Scale <= 1) {
			t.Fatalf("Decode accepted dataset scale %g", ds.Scale)
		}
	})
}

func FuzzDecodeSweepSpec(f *testing.F) {
	for _, s := range sweepBodySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := DecodeSweep(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("DecodeSweep accepted a sweep Validate rejects: %v", err)
		}
	})
}
