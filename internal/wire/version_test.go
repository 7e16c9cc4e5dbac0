package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

// The frames below are committed bytes, not re-encoded by the test, so a
// decoder bug cannot hide behind an encoder that shares it. The v5 and v6
// frames were captured from the last v5 and v6 encoders: each is
// EncodeMessage of the entry of capturedMessages at the same position. The
// v7 frames are the v7 re-encodings of the v6 ones, made while v6 still
// decoded. Only v7 decodes now; the older captures stay as frames a
// decoder must refuse.

// capturedMessages returns the messages v5Frames, v6Frames and v7Frames
// were encoded from: every entry of sampleMessages, then the
// fanin-wan-shaped "mass" envelope once per value shape, integral and not
// (entry len(sampleMessages())+1 is the sum of counts the size pins use).
func capturedMessages() []any {
	env := func(v any, sentAt time.Duration) *Envelope {
		return &Envelope{
			S: tuple.Summary{
				Query:  "mass",
				Index:  tuple.Index{TB: 20 * time.Second, TE: 20*time.Second + 250*time.Millisecond},
				Value:  v,
				Age:    140123456 * time.Nanosecond,
				Count:  5,
				Hops:   2,
				Levels: []int16{1, 0},
			},
			Tree:    1,
			TTLDown: 2,
			SentAt:  sentAt,
			Epoch:   1,
		}
	}
	out := sampleMessages()
	for _, v := range []any{
		nil,
		float64(1234),
		float64(42.5),
		math.Copysign(0, -1),
		math.Inf(-1),
		float64(1 << 53),
		[]float64{3, 0, -7, 1 << 40},
		[]float64{0.5, 2},
		"text",
		map[string]float64{"a": 1, "bb": 20, "ccc": -300},
		map[string]float64{"a": 0.25},
		[]ScoredEntry{{Key: "k1", Score: 90, Payload: []float64{1, 2}}, {Key: "k2", Score: 7}},
		[]ScoredEntry{{Key: "k1", Score: -30.5}},
		[]uint64{0, 1, math.MaxUint64},
		Coord{X: 3, Y: -4},
		Coord{X: 3.5, Y: 4},
	} {
		out = append(out, env(v, 20*time.Second+300*time.Millisecond))
	}
	return out
}

// v5Frames are the captured v5 encodings of capturedMessages, in order.
var v5Frames = []string{
	"0501076370752d73756dffcfacf30e80f882ad1680bcc1960b2a00030100000000000031400404010600010480a8de7503",
	"050a02076370752d73756d03076d656d2d6d617800040201040080d0acf30e0300000280a8d6b90780d0acf30e80e89226030001010000000000001040040000000080d0acf30e80f882ad1600010000010000000000002240040001020180a8d6b90780d0acf30e0001010000020200000100",
	"0502ac02fe95bff7dbd53700",
	"0502010000",
	"050309776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b02060201004003020412080601001202060201000602ac0200020602121812011c",
	"0504076370752d73756d09ffffffff0f0100020204",
	"0504076370752d73756d0c0300",
	"0505030161000101610104016200020101630203ffffffff0f07010109776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b",
	"0505000000",
	"05060209776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b0462617265000005636f756e740001000028140000000104676f6e65010402",
	"0507076370752d73756d0222",
	"0508076370752d73756d020202010040030204120806010000",
	"050804676f6e6500050001",
	"0509076370752d73756d020b0c",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000200020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000489340020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000404540020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000000080020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000201000000000000f0ff020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000004043020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020204000000000000084000000000000000000000000000001cc00000000000007042020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020202000000000000e03f0000000000000040020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002030474657874020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000204030161000000000000f03f0262620000000000003440036363630000000000c072c0020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000204010161000000000000d03f020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020502026b31000000000080564002000000000000f03f0000000000000040026b320000000000001c4000020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020501026b310000000000803ec000020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000206030001ffffffffffffffffff01020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000207000000000000084000000000000010c0020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002070000000000000c400000000000001040020200020280accb9f970101",
}

// v6Frames are the captured v6 encodings of capturedMessages, in order.
var v6Frames = []string{
	"0601076370752d73756d0f2b80bcc1960b2a000309220404010600010403",
	"060a02076370752d73756d03076d656d2d6d617800040201040080d0acf30e0300000280a8d6b90780d0acf30e80e892260300010908040000000080d0acf30e80f882ad16000100000912040001020180a8d6b90780d0acf30e0001010000020200000100",
	"0602ac02fe95bff7dbd537",
	"06020100",
	"060309776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b02060201004003020412080601001202060201000602ac0200020602121812011c",
	"0604076370752d73756d09ffffffff0f0100020204",
	"0604076370752d73756d0c0300",
	"0605030161000101610104016200020101630203ffffffff0f07010109776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b",
	"0605000000",
	"06060209776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b0462617265000005636f756e740001000028140000000104676f6e65010402",
	"0607076370752d73756d0222",
	"0608076370752d73756d020202010040030204120806010000",
	"060804676f6e6500050001",
	"0609076370752d73756d020b0c",
	"0601046d617373a301d20f80f5d0850105000200020200020201",
	"0601046d617373a301d20f80f5d0850105000209a413020200020201",
	"0601046d617373a301d20f80f5d08501050002010000000000404540020200020201",
	"0601046d617373a301d20f80f5d08501050002010000000000000080020200020201",
	"0601046d617373a301d20f80f5d0850105000201000000000000f0ff020200020201",
	"0601046d617373a301d20f80f5d08501050002010000000000004043020200020201",
	"0601046d617373a301d20f80f5d085010500020a0406000d808080808040020200020201",
	"0601046d617373a301d20f80f5d085010500020202000000000000e03f0000000000000040020200020201",
	"0601046d617373a301d20f80f5d08501050002030474657874020200020201",
	"0601046d617373a301d20f80f5d085010500020c030161020262622803636363d704020200020201",
	"0601046d617373a301d20f80f5d0850105000204010161000000000000d03f020200020201",
	"0601046d617373a301d20f80f5d085010500020d02026b31b401020204026b320e00020200020201",
	"0601046d617373a301d20f80f5d085010500020501026b310000000000803ec000020200020201",
	"0601046d617373a301d20f80f5d0850105000206030001ffffffffffffffffff01020200020201",
	"0601046d617373a301d20f80f5d0850105000207000000000000084000000000000010c0020200020201",
	"0601046d617373a301d20f80f5d08501050002070000000000000c400000000000001040020200020201",
}

// v7Frames are the v7 re-encodings of v6Frames, in order.
var v7Frames = []string{
	"0701076370752d73756d0f2b80bcc1960b2a000309220404010600010403",
	"070a02076370752d73756d03076d656d2d6d617800040201040080d0acf30e0300000280a8d6b90780d0acf30e80e892260300010908040000000080d0acf30e80f882ad16000100000912040001020180a8d6b90780d0acf30e0001010000020200000100",
	"0702ac02fe95bff7dbd537",
	"07020100",
	"070309776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b02060201004003020412080601001202060201000602ac0200020602121812011c",
	"0704076370752d73756d09ffffffff0f0100020204",
	"0704076370752d73756d0c0300",
	"0705030161000101610104016200020101630203ffffffff0f07010109776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b",
	"0705000000",
	"07060209776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b0462617265000005636f756e740001000028140000000104676f6e65010402",
	"0707076370752d73756d0222",
	"0708076370752d73756d020202010040030204120806010000",
	"070804676f6e6500050001",
	"0709076370752d73756d020b0c",
	"0701046d617373a301d20f80f5d0850105000200020200020201",
	"0701046d617373a301d20f80f5d0850105000209a413020200020201",
	"0701046d617373a301d20f80f5d08501050002010000000000404540020200020201",
	"0701046d617373a301d20f80f5d08501050002010000000000000080020200020201",
	"0701046d617373a301d20f80f5d0850105000201000000000000f0ff020200020201",
	"0701046d617373a301d20f80f5d08501050002010000000000004043020200020201",
	"0701046d617373a301d20f80f5d085010500020a0406000d808080808040020200020201",
	"0701046d617373a301d20f80f5d085010500020202000000000000e03f0000000000000040020200020201",
	"0701046d617373a301d20f80f5d08501050002030474657874020200020201",
	"0701046d617373a301d20f80f5d085010500020c030001610200026262280003636363d704020200020201",
	"0701046d617373a301d20f80f5d085010500020401000161000000000000d03f020200020201",
	"0701046d617373a301d20f80f5d085010500021d0200026b31b4010202040101320e00020200020201",
	"0701046d617373a301d20f80f5d08501050002150100026b310000000000803ec000020200020201",
	"0701046d617373a301d20f80f5d0850105000206000300000000000000000100000000000000ffffffffffffffff020200020201",
	"0701046d617373a301d20f80f5d0850105000207000000000000084000000000000010c0020200020201",
	"0701046d617373a301d20f80f5d08501050002070000000000000c400000000000001040020200020201",
}

// v6SketchFrames are sketch-wan envelopes (seed 1) the last v6 encoder
// wrote, one per sketch tenant, each the one whose value length was
// nearest its tenant's mean over the run (Bloom 130.7 B, distinct 138.3,
// entropy 288.3, top-k 209.0; nil values aside).
var v6SketchFrames = map[string]string{
	"bloom":    "060105626c6f6f6da21fd20fd6cdf364010000061090928080a0808040808080a480809080188180c08080808080048280808481c0888008808280a2828010a08080c0908080a080018881809180a0408180c0a08080801082c480848280b08010818480808080c80880808aa0819080800880a4c080808020808081a084c080a02480aa8080800180c0808080a0208080c080848820020806000000",
	"distinct": "06010864697374696e6374a29c01d20f9af9a87701000006208080808080808080018080808080804080808080808080800100808080809080c080048080808080200000000081848080808080018080800880808080802000808080808080808002808004808080088080808080208080808080808080038080808020008180808080808001818080100080060080088086848020000081808080808080800100020404000000",
	"entropy":  "060107656e74726f7079d28c01d20faacfc37b0200010c35026b3028026b3110036b313104056b3131323402046b31313802036b313202046b31323302056b3132363502036b313302056b3133313102036b313402046b31353302036b313702056b3137303202046b31373402046b31383202046b31383702026b320c036b323002046b32303502036b323104046b32343002036b323502036b323602036b323802026b330a046b33303502036b333402046b33353602046b33353902056b3337363202046b33383302046b33393302056b3339353802026b3408036b343302046b34333802046b34363802046b34383102026b3504036b353202036b353302026b360a036b363002046b36373902036b363802026b3702026b3804046b38323702036b383302036b383802026b3904046b39363502020606000200",
	"topk":     "060104746f706be25dd20f84e8dc77010000050a026b30000000000000f03f019cc420c08f244441026b31000000000000f03f019cc420c09f4b4441036b3130000000000000f03f019cc420c0ff354541046b313032000000000000f03f019cc420c00f5d4541036b3131000000000000f03f019cc420c047ad4441036b3132000000000000f03f019cc420c007114441036b3134000000000000f03f019cc420c077224541036b3139000000000000f03f019cc420c0bf994441026b32000000000000f03f019cc420c0bf994441026b33000000000000f03f019cc420c09f4b4441020606000000",
}

// v7SketchFrames are the v7 re-encodings of v6SketchFrames.
var v7SketchFrames = map[string]string{
	"bloom":    "070105626c6f6f6da21fd20fd6cdf3640100000601105004030215151f02130c000313250615040c030d0c0d030210161504150803030d030e070f13051a0b0703090510000c03082302031a0108010a130d02071a1e0b030a0c03020a010116291a0624090708020806000000",
	"distinct": "07010864697374696e6374a29c01d20f9af9a87701000006012020383747670f092d97020827264f900116474f4f00275e300e186e0080013d0006109e0137020404000000",
	"entropy":  "070107656e74726f7079d28c01d20faacfc37b0200010c3500026b3028010131100201310403023234020301380202013202030133020302363502020133020302313102020134020202353302020137020302303202030134020202383202030137020101320c02013002030135020201310402023430020201350202013602020138020101330a020230350202013402020235360203013902020337363202020238330202023933020302353802010134080201330203013802020236380202023831020101350402013202020133020101360a02013002020237390202013802010137020101380402023237020201330202013802010139040202363502020606000200",
	"topk":     "070104746f706be25dd20f84e8dc770100000d0a00026b3002019cc420c08f24444101013102019cc420c09f4b444102013002019cc420c0ff35454103013202019cc420c00f5d454102013102019cc420c047ad444102013202019cc420c00711444102013402019cc420c07722454102013902019cc420c0bf99444101013202019cc420c0bf99444101013302019cc420c09f4b4441020606000000",
}

// v5FilledSlotHeartbeat is a captured v5 heartbeat {Seq: 2, Hash:
// 0xdeadbeefcafe} whose coordinate slot a pre-v5 netrt sender filled: a 3-D
// coordinate (3.25, -1.5, 40) and its error estimate 0.4.
const v5FilledSlotHeartbeat = "050202fe95bff7dbd537030000000000000a40000000000000f8bf00000000000044409a9999999999d93f"

// hexFrame decodes one captured frame.
func hexFrame(t testing.TB, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v5Frame, v6Frame and v7Frame return captured frame i as bytes.
func v5Frame(t testing.TB, i int) []byte { return hexFrame(t, v5Frames[i]) }
func v6Frame(t testing.TB, i int) []byte { return hexFrame(t, v6Frames[i]) }
func v7Frame(t testing.TB, i int) []byte { return hexFrame(t, v7Frames[i]) }

// sketchKinds are the sketch frames' keys in a fixed order.
var sketchKinds = []string{"bloom", "distinct", "entropy", "topk"}

// v7Captured returns every committed v7 frame: v7Frames, then
// v7SketchFrames in sketchKinds order.
func v7Captured(t testing.TB) [][]byte {
	var out [][]byte
	for i := range v7Frames {
		out = append(out, v7Frame(t, i))
	}
	for _, k := range sketchKinds {
		out = append(out, hexFrame(t, v7SketchFrames[k]))
	}
	return out
}

// retiredCaptures returns every captured frame of an older version: the
// v6 frames and sketch frames, then the v5 frames and the v5 heartbeat
// with a filled coordinate slot.
func retiredCaptures(t testing.TB) [][]byte {
	var out [][]byte
	for i := range v6Frames {
		out = append(out, v6Frame(t, i))
	}
	for _, k := range sketchKinds {
		out = append(out, hexFrame(t, v6SketchFrames[k]))
	}
	for i := range v5Frames {
		out = append(out, v5Frame(t, i))
	}
	return append(out, hexFrame(t, v5FilledSlotHeartbeat))
}

// reencoded returns the current encoding of a frame's decoded message.
func reencoded(t testing.TB, frame []byte) []byte {
	t.Helper()
	msg, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	var w Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// capturedSeeds returns every committed frame, the fuzz targets' seeds
// beyond sampleMessages: the v7 ones, then the retired ones (refused by
// version; a mutation may restamp one).
func capturedSeeds(t testing.TB) [][]byte {
	return append(v7Captured(t), retiredCaptures(t)...)
}

// withoutSentAt returns msg as the codec gives it back: an envelope's
// SentAt is not on the wire.
func withoutSentAt(msg any) any {
	if e, ok := msg.(*Envelope); ok {
		c := *e
		c.SentAt = 0
		return &c
	}
	return msg
}

// The decode policy is "the current version alone". Every committed v7
// frame decodes to the message it was encoded from, SentAt aside and
// every number bit for bit, and that message encodes back to the frame
// byte for byte. The frame restamped with any other version byte is
// corrupt, and so is every captured v5 and v6 frame, the v5 heartbeat with
// a filled coordinate slot among them.
func TestDecodeVersionWindow(t *testing.T) {
	msgs := capturedMessages()
	if len(msgs) != len(v7Frames) || len(msgs) != len(v6Frames) || len(msgs) != len(v5Frames) {
		t.Fatalf("%d messages for %d v7, %d v6 and %d v5 captured frames", len(msgs), len(v7Frames), len(v6Frames), len(v5Frames))
	}
	roundTrip := func(frame []byte, what string) any {
		t.Helper()
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if again := reencoded(t, frame); !bytes.Equal(again, frame) {
			t.Fatalf("%s re-encodes as %x, want %x", what, again, frame)
		}
		bad := bytes.Clone(frame)
		for v := range 256 {
			if bad[0] = byte(v); bad[0] == Version {
				continue
			}
			if _, err := DecodeMessage(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s stamped v%d: err = %v, want ErrCorrupt", what, v, err)
			}
		}
		return got
	}
	for i, msg := range msgs {
		want := withoutSentAt(msg)
		got := roundTrip(v7Frame(t, i), fmt.Sprintf("v7 frame %d", i))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("v7 frame %d (%T): got %#v\nwant %#v", i, msg, got, want)
		}
		if e, ok := msg.(*Envelope); ok {
			if v := got.(*Envelope).S.Value; !sameValue(v, e.S.Value) {
				t.Fatalf("v7 frame %d: value %#v, want %#v bit for bit", i, v, e.S.Value)
			}
		}
	}
	for _, k := range sketchKinds {
		roundTrip(hexFrame(t, v7SketchFrames[k]), "v7 "+k+" frame")
	}
	for i, frame := range retiredCaptures(t) {
		if _, err := DecodeMessage(frame); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("retired capture %d (v%d): err = %v, want ErrCorrupt", i, frame[0], err)
		}
	}
}

// numbers flattens a value's float64s to their bit patterns in encoding
// order, so −0 and NaN payloads compare exactly (reflect.DeepEqual takes
// −0 for 0 and never takes NaN for itself).
func numbers(v any) []uint64 {
	var out []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
	}
	switch x := v.(type) {
	case float64:
		add(x)
	case []float64:
		add(x...)
	case map[string]float64:
		for _, k := range slices.Sorted(maps.Keys(x)) {
			add(x[k])
		}
	case []ScoredEntry:
		for _, e := range x {
			add(e.Score)
			add(e.Payload...)
		}
	case Coord:
		add(x.X, x.Y)
	}
	return out
}

// sameValue reports whether two values have the same shape and the same
// numbers bit for bit.
func sameValue(a, b any) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) && reflect.DeepEqual(numbers(a), numbers(b))
}

// v5ValueLen is how long PutValue wrote v at v5, where every number took
// 8 bytes and a bit array a uvarint a word.
func v5ValueLen(v any) int {
	uv := func(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }
	str := func(s string) int { return uv(len(s)) + len(s) }
	switch x := v.(type) {
	case float64:
		return 9
	case []float64:
		return 1 + uv(len(x)) + 8*len(x)
	case map[string]float64:
		n := 1 + uv(len(x))
		for k := range x {
			n += str(k) + 8
		}
		return n
	case []ScoredEntry:
		n := 1 + uv(len(x))
		for _, e := range x {
			n += str(e.Key) + 8 + uv(len(e.Payload)) + 8*len(e.Payload)
		}
		return n
	case []uint64:
		n := 1 + uv(len(x))
		for _, u := range x {
			n += len(binary.AppendUvarint(nil, u))
		}
		return n
	case Coord:
		return 17
	}
	var w Buffer
	if err := w.PutValue(v); err != nil {
		panic(err)
	}
	return w.Len() // nil and strings did not change
}

// keyCount is how many keys a value holds: a v7 key costs at most one
// byte more than at v5, its shared-prefix length.
func keyCount(v any) int {
	switch x := v.(type) {
	case map[string]float64:
		return len(x)
	case []ScoredEntry:
		return len(x)
	}
	return 0
}

// edgeNumbers are the float64s a lossless number codec is likeliest to
// get wrong.
func edgeNumbers() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.1, 1234, 123.000001,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000abc), // negative NaN with a payload
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64, 1e300, math.MaxInt64, math.MinInt64,
	}
}

// valueShapes wraps x in every value shape that holds float64s.
func valueShapes(x float64) []any {
	return []any{
		x,
		[]float64{x, 1, -2},
		map[string]float64{"k": x, "j": 3},
		[]ScoredEntry{{Key: "a", Score: x, Payload: []float64{x, 4}}, {Key: "b", Score: 5}},
		Coord{X: x, Y: 6},
		Coord{X: 7, Y: x},
	}
}

// Property: every number in every value shape round-trips bit for bit,
// and no value encodes longer than it did at v5 but for a byte a key.
func TestPropertyNumbersRoundTrip(t *testing.T) {
	check := func(x float64) bool {
		for _, v := range valueShapes(x) {
			var w Buffer
			if err := w.PutValue(v); err != nil {
				t.Fatal(err)
			}
			got, err := NewReader(w.Bytes()).Value()
			if err != nil || !sameValue(got, v) {
				t.Logf("%#v came back as %#v, %v", v, got, err)
				return false
			}
			if w.Len() > v5ValueLen(v)+keyCount(v) {
				t.Logf("%#v takes %d B, %d at v5", v, w.Len(), v5ValueLen(v))
				return false
			}
		}
		return true
	}
	for _, x := range edgeNumbers() {
		if !check(x) {
			t.Fatalf("edge number %v (%#x)", x, math.Float64bits(x))
		}
	}
	bits := func(u uint64) bool { return check(math.Float64frombits(u)) }
	ints := func(i int64) bool { return check(float64(i % (1 << 54))) }
	for _, f := range []any{bits, ints} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// edgeDurations are the durations a scaled codec is likeliest to get wrong:
// unit boundaries, the int64 extremes, and the largest round counts.
func edgeDurations() []time.Duration {
	out := []time.Duration{0, 20*time.Second + 250*time.Millisecond, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, d := range []time.Duration{1, 999, 1000, 1001, time.Millisecond, time.Second, 1 << 40, 1000 << 40,
		math.MaxInt64 / 1000 * 1000, math.MaxInt64 / 1e6 * 1e6, math.MaxInt64 / 1e9 * 1e9} {
		out = append(out, d, -d)
	}
	return out
}

// Property: scaled durations, and window indices in either order, round-trip
// exactly.
func TestPropertyScaledRoundTrip(t *testing.T) {
	scaled := func(d time.Duration) bool {
		var w Buffer
		w.PutScaled(d)
		r := NewReader(w.Bytes())
		got, err := r.Scaled()
		return err == nil && got == d && r.Remaining() == 0
	}
	index := func(tb, te time.Duration) bool {
		s := tuple.Summary{Query: "q", Index: tuple.Index{TB: tb, TE: te}, Levels: []int16{}}
		var w Buffer
		if err := EncodeSummary(&w, s, 0); err != nil {
			return false
		}
		got, _, err := DecodeSummary(NewReader(w.Bytes()))
		return err == nil && got.Index == s.Index
	}
	for _, a := range edgeDurations() {
		if !scaled(a) {
			t.Fatalf("scaled %d", a)
		}
		for _, b := range edgeDurations() {
			if !index(a, b) {
				t.Fatalf("index [%d, %d)", a, b)
			}
		}
	}
	round := func(v int64, unit uint8) bool {
		mul := int64(1)
		for u := unit % 4; u > 0; u-- {
			mul *= 1000
		}
		d := time.Duration(v % (math.MaxInt64 / mul) * mul)
		return scaled(d) && index(d, d+250*time.Millisecond)
	}
	if err := quick.Check(round, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(a, b int64) bool { return index(time.Duration(a), time.Duration(b)) }, nil); err != nil {
		t.Fatal(err)
	}
	// A count whose nanoseconds overflow an int64 is corrupt, as is a count
	// wider than 64 bits.
	var w Buffer
	w.b = append(w.b, 0x80|3)
	w.PutUvarint(uint64(math.MaxInt64/time.Second)>>4 + 1)
	if _, err := NewReader(w.Bytes()).Scaled(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing seconds: %v", err)
	}
	w = Buffer{}
	w.b = append(w.b, 0x80)
	w.PutUvarint(1 << 59)
	if _, err := NewReader(w.Bytes()).Scaled(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("66-bit count: %v", err)
	}
}
