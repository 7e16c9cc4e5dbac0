package federation

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mortar"
	"repro/internal/runtime"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/bytes-seed1.txt from this tree")

// byteTap counts, while on, what the peers hand the transport: encoded
// bytes and frames per class, and summary envelopes per query.
type byteTap struct {
	runtime.Transport
	on                  bool
	dataBytes, ctlBytes int
	dataFrames          int
	sumBytes, summaries map[string]int
}

func (t *byteTap) Send(from, to int, class runtime.Class, size int, payload any) bool {
	if fr, ok := payload.(*runtime.Frame); ok && t.on {
		if class == runtime.ClassData {
			t.dataBytes += len(fr.Bytes)
			t.dataFrames++
		} else {
			t.ctlBytes += len(fr.Bytes)
		}
		if env, ok := fr.Payload.(*wire.Envelope); ok {
			t.sumBytes[env.S.Query] += len(fr.Bytes)
			t.summaries[env.S.Query]++
		}
	}
	return t.Transport.Send(from, to, class, size, payload)
}

type tappedRuntime struct {
	*simrt.Runtime
	tap *byteTap
}

func (r tappedRuntime) Transport() runtime.Transport { return r.tap }

// byteRun is one golden federation: the bench workload it mirrors and its
// tenants; keys draws every raw tuple's key from a fixed Zipf stream.
type byteRun struct {
	workload string
	tenants  []QuerySpec
	keys     bool
}

// The bytes a 64-peer simrt federation sends per window, in the shapes of
// bench/'s fanin-wan (its four sum/max tenants) and sketch-wan (its four
// sketch tenants over Zipf keys): bf 4 and two trees, so three levels
// below the root, 250 ms windows, and every peer offering two tuples
// [1, stamp µs] each 10 ms, as the bench generator does. simrt encodes
// every frame with the wire codec, so these are exact wire bytes; a change
// to the codec or to what a peer sends moves them. Regenerate with
// `go test ./internal/federation -run TestWireBytesGolden -update` and
// give the diff with the change.
//
// bench's fanin-wan counts more per peer per window than the data line
// here: netrt's transport header (about 3 B on most frames, the one layer
// simrt does not run), its probes, and the control bytes this prints per
// second; and its lat stamps carry a fraction of a µs, so lat's max
// travels as an 8 B float where here it is an integral varint.
func TestWireBytesGolden(t *testing.T) {
	const golden = "testdata/bytes-seed1.txt"
	window := tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 250 * time.Millisecond, Slide: 250 * time.Millisecond}
	q := func(name, op string, args ...string) QuerySpec {
		return QuerySpec{Name: name, Op: op, Args: args, Window: window, Trees: 2, BF: 4}
	}
	runs := []byteRun{
		{workload: "fanin-wan", tenants: []QuerySpec{q("lat", "max", "1"), q("mass", "sum", "0"), q("sum1", "sum", "0"), q("sum2", "sum", "0")}},
		{workload: "sketch-wan", keys: true, tenants: []QuerySpec{q("distinct", "distinct", "256"), q("bloom", "bloom", "1024", "3"), q("topk", "topk", "10", "0"), q("entropy", "entropy")}},
	}
	var got bytes.Buffer
	for _, r := range runs {
		wireBytes(t, &got, r)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %q\n want %q", golden, i+1, g, w)
		}
	}
}

// wireBytes runs one golden federation and prints its per-window bytes.
func wireBytes(t *testing.T, out *bytes.Buffer, r byteRun) {
	const (
		peers   = 64
		warm    = 4 * time.Second
		windows = 24
	)
	rt := simrt.NewPaper(1, peers, simrt.TopoOptions{Stubs: 8, Transits: 2})
	tap := &byteTap{Transport: rt.Transport(), sumBytes: map[string]int{}, summaries: map[string]int{}}
	fed, err := NewRuntimeCfg(tappedRuntime{rt, tap}, nil, rand.New(rand.NewSource(1)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range r.tenants {
		if err := fed.InstallQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	var keys *workload.ZipfKeys
	if r.keys {
		keys = workload.NewZipfKeys(rand.New(rand.NewSource(1^0x7a697066)), 1.2, 4096)
	}
	for p := 0; p < peers; p++ {
		rt.Every(10*time.Millisecond, func() {
			b := fed.Fab.GetRawBatch(2)
			vals := []float64{1, float64(rt.Now() / time.Microsecond)}
			for range 2 {
				raw := tuple.Raw{Vals: vals}
				if keys != nil {
					raw.Key = keys.Next()
				}
				b = append(b, raw)
			}
			fed.Fab.InjectBatch(p, b)
		})
	}
	rt.RunFor(warm)
	tap.on = true
	slide := r.tenants[0].Window.Slide
	span := windows * slide
	rt.RunFor(span)
	tap.on = false

	per := float64(peers * windows)
	fmt.Fprintf(out, "# %s: %d peers, %d windows of %v after %v\n", r.workload, peers, windows, slide, warm)
	fmt.Fprintf(out, "data bytes per peer per window   %8.2f\n", float64(tap.dataBytes)/per)
	fmt.Fprintf(out, "data frames per peer per window  %8.3f\n", float64(tap.dataFrames)/per)
	fmt.Fprintf(out, "control bytes per peer per s     %8.2f\n", float64(tap.ctlBytes)/peers/span.Seconds())
	names := make([]string, 0, len(tap.summaries))
	for name := range tap.summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	ops := map[string]string{}
	for _, q := range r.tenants {
		ops[q.Name] = q.Op
	}
	for _, name := range names {
		fmt.Fprintf(out, "bytes per summary %-8s %-8s %8.2f  (%d summaries)\n",
			ops[name], name, float64(tap.sumBytes[name])/float64(tap.summaries[name]), tap.summaries[name])
	}
}
