package mortar

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/runtime"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// chunkTestDef plans a query over n members with branching factor bf.
func chunkTestDef(t *testing.T, n, bf, d int) *QueryDef {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	coords := make([]cluster.Point, n)
	for i := range coords {
		coords[i] = cluster.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	def := &QueryDef{
		Meta: QueryMeta{
			Name:   "chunks",
			Seq:    1,
			OpName: "sum",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
			Root:   0,
		},
		Trees:   plan.Build(coords, 0, bf, d, rng),
		Members: members,
	}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	return def
}

// netrtFrameBound is netrt's bound on one frame: Send drops anything larger.
const netrtFrameBound = 4 << 20

// chunkCases are the trees the install-split tests plan: (members,
// branching factor, tree count).
var chunkCases = []struct{ n, bf, d int }{
	{12, 2, 6},
	{40, 2, 2},
	{64, 4, 2},
	{1000, 16, 4},
	{10000, 16, 4},
}

// forEachChunking runs check on buildChunks' split of every chunkCases tree.
func forEachChunking(t *testing.T, check func(t *testing.T, def *QueryDef, chunks []*chunk)) {
	for _, tc := range chunkCases {
		t.Run(fmt.Sprintf("n%d_bf%d_d%d", tc.n, tc.bf, tc.d), func(t *testing.T) {
			def := chunkTestDef(t, tc.n, tc.bf, tc.d)
			check(t, def, buildChunks(def))
		})
	}
}

// The install multicast splits the primary tree the paper's fixed-count way
// on every backend (§6, n = 16 in §7.1): every member in exactly one
// component, each component connected down its forward edges from its head,
// between 2 and 17 components, and no component larger than its head plus
// one under-limit subtree per child.
func TestBuildChunksCountMode(t *testing.T) {
	forEachChunking(t, func(t *testing.T, def *QueryDef, chunks []*chunk) {
		primary := def.Trees.Trees[0]
		limit := (len(def.Members) + installComponents - 1) / installComponents
		seen := map[int]int{}
		for i, c := range chunks {
			for p := range c.members {
				seen[p]++
				if pa := primary.Parent[def.memberIndex(p)]; p != c.head {
					if _, ok := c.members[def.Members[pa]]; !ok {
						t.Fatalf("component %d: member %d's parent %d is outside it", i, p, def.Members[pa])
					}
				}
			}
			reached := map[int]bool{c.head: true}
			for queue := []int{c.head}; len(queue) > 0; queue = queue[1:] {
				for _, next := range c.forward[queue[0]] {
					reached[next] = true
					queue = append(queue, next)
				}
			}
			if len(reached) != len(c.members) {
				t.Fatalf("component %d: forward edges reach %d of its %d members", i, len(reached), len(c.members))
			}
			if most := 1 + len(primary.Children[def.memberIndex(c.head)])*(limit-1); len(c.members) > most {
				t.Fatalf("component %d has %d members, want at most %d", i, len(c.members), most)
			}
		}
		for _, m := range def.Members {
			if seen[m] != 1 {
				t.Fatalf("member %d appears in %d components", m, seen[m])
			}
		}
		if len(chunks) < 2 || len(chunks) > installComponents+1 {
			t.Fatalf("%d components, want 2 to %d", len(chunks), installComponents+1)
		}
	})
}

// Every component's install message fits netrt's frame bound, so the
// fixed-count split needs no byte budget of its own up to 10,000 members.
func TestBuildChunksByteBudget(t *testing.T) {
	forEachChunking(t, func(t *testing.T, def *QueryDef, chunks []*chunk) {
		for i, c := range chunks {
			var w wire.Buffer
			if err := wire.EncodeMessage(&w, msgInstall{Meta: def.Meta, Members: c.members, Forward: c.forward}); err != nil {
				t.Fatal(err)
			}
			if w.Len() > netrtFrameBound {
				t.Fatalf("component %d encodes to %d bytes, over netrt's %d", i, w.Len(), netrtFrameBound)
			}
		}
	})
}

// rootInstallTap counts the install frames peer 0 transmits.
type rootInstallTap struct {
	runtime.Transport
	installs int
}

func (t *rootInstallTap) Send(from, to int, class runtime.Class, size int, payload any) bool {
	if fr, ok := payload.(*runtime.Frame); ok && from == 0 {
		if _, ok := fr.Payload.(msgInstall); ok {
			t.installs++
		}
	}
	return t.Transport.Send(from, to, class, size, payload)
}

type tappedRuntime struct {
	*simrt.Runtime
	tap *rootInstallTap
}

func (r tappedRuntime) Transport() runtime.Transport { return r.tap }

// The root multicasts a 1,000-member install as one frame per component
// head plus one per child it forwards its own component to, and the
// multicast alone installs and wires every member.
func TestRootInstallFramesBounded(t *testing.T) {
	const n = 1000
	rt := simrt.NewPaper(1, n, simrt.TopoOptions{Stubs: 8, Transits: 2})
	tap := &rootInstallTap{Transport: rt.Transport()}
	fab, err := NewFabric(tappedRuntime{rt, tap}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	meta := QueryMeta{
		Name:   "wide",
		Seq:    1,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(n, 7), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	primary := def.Trees.Trees[0]
	bound := installComponents + 1 + len(primary.Children[primary.Root])
	if tap.installs > bound {
		t.Fatalf("root sent %d install frames, want at most %d", tap.installs, bound)
	}
	rt.RunFor(time.Second)
	if installed, wired := fab.Counts("wide", wire.AllEpochs); installed != n || wired != n {
		t.Fatalf("installed %d, wired %d of %d", installed, wired, n)
	}
}
