package netrt_test

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// NetStats.HeaderBytes counts the transport header Send writes, by rule:
// the kind byte and the two peer indices on every frame (3 B between
// peers below 128), a µs transmit stamp on the first frame to a remote in
// each StampEvery, and the echo of the remote's newest unechoed stamp with
// its µs hold on the next frame back. A scripted sequence from peer 0 to a
// raw socket playing peer 1 — control and data frames, a stamp from the
// raw side, and a frame past StampEvery — reads each datagram's header
// back and finds HeaderBytes equal to what the rules give, and ClassBytes
// equal to the headers plus the message bodies.
func TestHeaderBytesByRule(t *testing.T) {
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rt, err := netrt.New([]string{"127.0.0.1:0", raw.LocalAddr().String()}, []int{0}, netrt.Options{Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	got := make(chan any, 4)
	rt.Handle(0, func(from int, payload any, size int) { got <- payload })

	hb := wire.Heartbeat{Seq: 1}
	var hw wire.Buffer
	if err := wire.EncodeMessage(&hw, hb); err != nil {
		t.Fatal(err)
	}
	env := &wire.Envelope{S: tuple.Summary{Value: float64(3), Count: 1, Levels: []int16{0}}, Seq: 2}
	var ew wire.Buffer
	if err := wire.EncodeMessage(&ew, env); err != nil {
		t.Fatal(err)
	}
	uvarintLen := func(v uint64) int { return len(binary.AppendUvarint(nil, v)) }

	var addr *net.UDPAddr
	var headers, bodies int
	// send has peer 0 send one frame to peer 1 and reads it off the raw
	// socket: its kind, the fields past the indices, and the header's
	// length, which must be what the fields give by rule.
	send := func(class runtime.Class) (kind byte, fields []uint64) {
		t.Helper()
		body := hw.Bytes()
		var payload any = hb
		if class == runtime.ClassData {
			body = ew.Bytes()
			payload = &runtime.Frame{Payload: env, Bytes: body}
		}
		if !rt.Send(0, 1, class, len(body), payload) {
			t.Fatal("send refused")
		}
		buf := make([]byte, 2048)
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, from, err := raw.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		addr = from
		kind, fields = buf[0], nil
		want := 3
		for i := 0; i < n-len(body)-3; {
			v, k := binary.Uvarint(buf[3+i : n-len(body)])
			if k <= 0 {
				t.Fatalf("kind %d header unreadable: % x", kind, buf[:n])
			}
			fields = append(fields, v)
			want += uvarintLen(v)
			i += k
		}
		if buf[1] != 0 || buf[2] != 1 || n-len(body) != want {
			t.Fatalf("kind %d frame % x: header %d B, want 3 + the fields %v", kind, buf[:n], n-len(body), fields)
		}
		headers += want
		bodies += len(body)
		return kind, fields
	}
	check := func(what string, kind, wantKind byte, fields []uint64, wantFields int) {
		t.Helper()
		if kind != wantKind || len(fields) != wantFields {
			t.Fatalf("%s: kind %d with fields %v, want kind %d with %d", what, kind, fields, wantKind, wantFields)
		}
		if n := rt.NetStats().HeaderBytes; n != uint64(headers) {
			t.Fatalf("%s: HeaderBytes %d, the headers read %d B", what, n, headers)
		}
	}

	kind, fields := send(runtime.ClassControl)
	check("first frame", kind, 9, fields, 1) // stamped
	kind, fields = send(runtime.ClassControl)
	check("second frame", kind, 8, fields, 0) // bare: stamped within StampEvery
	kind, fields = send(runtime.ClassData)
	check("data frame", kind, 8, fields, 0)

	// Peer 1 stamps a frame to peer 0; peer 0's next frame echoes it.
	const stamp = 5_000_000
	in := binary.AppendUvarint([]byte{9, 1, 0}, stamp)
	in = append(in, wire.Version, 2, 2, 0) // the heartbeat {Seq 2}
	if _, err := raw.WriteToUDP(in, addr); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("peer 1's stamped frame never delivered")
	}
	kind, fields = send(runtime.ClassData)
	check("echoing frame", kind, 10, fields, 2)
	if fields[0] != stamp {
		t.Fatalf("echo %d, want %d", fields[0], stamp)
	}
	kind, fields = send(runtime.ClassControl)
	check("after the echo", kind, 8, fields, 0)

	time.Sleep(netrt.StampEvery)
	kind, fields = send(runtime.ClassControl)
	check("past StampEvery", kind, 9, fields, 1)

	if ctl, data := rt.ClassBytes(); ctl+data != uint64(headers+bodies) {
		t.Fatalf("ClassBytes %d + %d, want the %d header and %d body bytes", ctl, data, headers, bodies)
	}
}
