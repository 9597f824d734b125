package asvm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// wireSpecimens is one representative message per wire kind, in the pointer
// form Node.handle dispatches on, exercising every field: non-zero IDs, set
// and unset flags, nil and non-nil slices. TestWireRoundTrip holds the list
// to "every field of every kind is non-zero in some specimen".
func wireSpecimens() []interface{} {
	return []interface{}{
		&accessReq{
			Obj: vm.ObjID{Node: 1, Seq: 7}, Target: vm.ObjID{Node: 2, Seq: 9},
			Idx: 3, Want: vm.ProtWrite, ReqKind: kindPull, Origin: 4, Hops: 5,
			Scanning: true, ScannedAll: true, ForHome: true, ScanStart: 6, LastFrom: 2,
		},
		&grantMsg{
			Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Lock: vm.ProtRead,
			Data: []byte{0xde, 0xad, 0xbe, 0xef}, HasData: true, Fresh: false,
			Ownership: true, Readers: []mesh.NodeID{1, 3}, Version: 11,
			Retry: false, AtPagerCopy: true, Unavailable: false, From: 2,
		},
		&grantMsg{ // metadata-only grant: nil Data, nil Readers must survive
			Obj: vm.ObjID{Node: 0, Seq: 1}, Idx: 0, Lock: vm.ProtWrite,
			Fresh: true, Ownership: true, Version: 2, Retry: true, From: 0,
		},
		&grantMsg{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 5, Unavailable: true, From: 3},
		&invalMsg{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, NewOwner: 2, Seq: 41, From: 1},
		&invalAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 41, From: 3},
		&ownerUpdate{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Owner: 2, Paged: true},
		&ownerXfer{
			Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3,
			Readers: []mesh.NodeID{2}, Version: 5, Seq: 13, From: 1,
		},
		&ownerXferAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 13, Accepted: true, From: 2},
		&pageOffer{
			Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3,
			Data: []byte{1, 2, 3}, Version: 5, Seq: 17, From: 2,
		},
		&pageOfferAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 17, Accepted: true, From: 3},
		&toPager{
			Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3,
			Data: []byte{9, 8}, Dirty: true, Lost: false, Seq: 19, From: 2,
		},
		&toPager{ // lost-page notice: no contents at all
			Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 4, Lost: true, Seq: 23, From: 3,
		},
		&toPagerAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 19},
		&pushScanAck{SrcObj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Found: true},
	}
}

// Every kind must survive encode→decode unchanged, in the exact Go form the
// dispatcher expects. Every field of every kind is set in some specimen, so
// a field the encoder or the decoder misses fails the round trip.
func TestWireRoundTrip(t *testing.T) {
	c := WireCodec()
	set := make(map[reflect.Type][]bool)
	for _, m := range wireSpecimens() {
		v := reflect.ValueOf(m).Elem()
		if set[v.Type()] == nil {
			set[v.Type()] = make([]bool, v.NumField())
		}
		for i := 0; i < v.NumField(); i++ {
			set[v.Type()][i] = set[v.Type()][i] || !v.Field(i).IsZero()
		}
	}
	if len(set) != 12 {
		t.Errorf("specimens cover %d message kinds, want all 12", len(set))
	}
	for typ, fields := range set {
		for i, ok := range fields {
			if !ok {
				t.Errorf("no specimen sets %s.%s", typ.Name(), typ.Field(i).Name)
			}
		}
	}
	for _, m := range wireSpecimens() {
		enc, err := c.AppendMsg(nil, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := c.DecodeMsg(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip changed %T:\n  sent %+v\n  got  (%T) %+v", m, m, got, got)
		}
	}
}

// AppendMsg must extend dst in place, not replace it.
func TestWireAppendsToDst(t *testing.T) {
	c := WireCodec()
	prefix := []byte{0xAA, 0xBB}
	out, err := c.AppendMsg(append([]byte(nil), prefix...), &pushScanAck{Found: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("AppendMsg dropped dst prefix: %x", out)
	}
}

// Golden frames: the byte-for-byte wire form of each kind is a
// compatibility contract between asvmd processes — a codec change that
// alters these breaks mixed-version meshes and must be deliberate (bump
// netx's wire version alongside).
func TestWireGoldenFrames(t *testing.T) {
	c := WireCodec()
	for _, g := range goldenFrames() {
		want := g.want(t)
		got, err := c.AppendMsg(nil, g.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire form changed\n  got  %x\n  want %x", g.name, got, want)
		}
	}
}

// DecodeMsg must not retain its input (the xport.WireCodec contract): netx
// reads every frame of a connection into one buffer and overwrites it with
// the next frame while the decoded message is still queued for the engine.
// Each kind's golden frame is decoded, the input is poisoned, and the
// message must still encode to the original bytes.
func TestWireDecodeDoesNotRetainInput(t *testing.T) {
	c := WireCodec()
	kinds := make(map[byte]bool)
	for _, g := range goldenFrames() {
		want := g.want(t)
		in := append([]byte(nil), want...)
		m, err := c.DecodeMsg(in)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		for i := range in {
			in[i] = 0xFF
		}
		got, err := c.AppendMsg(nil, m)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", g.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: decoded message aliases its input\n  got  %x\n  want %x", g.name, got, want)
		}
		kinds[want[0]] = true
	}
	if len(kinds) != 12 {
		t.Errorf("golden frames cover %d message kinds, want all 12", len(kinds))
	}
}

type goldenFrame struct {
	name string
	msg  interface{}
	hex  string
}

func (g goldenFrame) want(t *testing.T) []byte {
	b, err := hex.DecodeString(g.hex)
	if err != nil {
		t.Fatalf("%s: bad golden hex: %v", g.name, err)
	}
	return b
}

func goldenFrames() []goldenFrame {
	return []goldenFrame{
		{
			"accessReq",
			&accessReq{
				Obj: vm.ObjID{Node: 1, Seq: 7}, Target: vm.ObjID{Node: 2, Seq: 9},
				Idx: 3, Want: vm.ProtWrite, ReqKind: kindPull, Origin: 4, Hops: 5,
				Scanning: true, ForHome: true, ScanStart: 6, LastFrom: 2,
			},
			"00" + // kind
				"01000000" + "0700000000000000" + // Obj
				"02000000" + "0900000000000000" + // Target
				"0300000000000000" + // Idx
				"02" + "01" + // Want=ProtWrite, ReqKind=kindPull
				"04000000" + "05000000" + // Origin, Hops
				"01" + "00" + "01" + // Scanning, ScannedAll, ForHome
				"06000000" + "02000000", // ScanStart, LastFrom
		},
		{
			"grant",
			&grantMsg{
				Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Lock: vm.ProtRead,
				Data: []byte{0xde, 0xad}, HasData: true, Ownership: true,
				Readers: []mesh.NodeID{1, 3}, Version: 11, AtPagerCopy: true, From: 2,
			},
			"01" +
				"01000000" + "0700000000000000" + // Obj
				"0300000000000000" + // Idx
				"01" + // Lock=ProtRead
				"02000000" + "dead" + // Data len+bytes
				"01" + "00" + "01" + // HasData, Fresh, Ownership
				"02000000" + "01000000" + "03000000" + // Readers
				"0b00000000000000" + // Version
				"00" + "01" + "00" + // Retry, AtPagerCopy, Unavailable
				"02000000", // From
		},
		{
			"grantNilSlices",
			&grantMsg{Obj: vm.ObjID{Node: 0, Seq: 1}, Lock: vm.ProtWrite, Version: 2},
			"01" +
				"00000000" + "0100000000000000" +
				"0000000000000000" +
				"02" +
				"ffffffff" + // nil Data sentinel
				"00" + "00" + "00" +
				"ffffffff" + // nil Readers sentinel
				"0200000000000000" +
				"00" + "00" + "00" +
				"00000000",
		},
		{
			"inval",
			&invalMsg{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, NewOwner: 2, Seq: 41, From: 1},
			"02" + "01000000" + "0700000000000000" + "0300000000000000" +
				"02000000" + "2900000000000000" + "01000000",
		},
		{
			"invalAck",
			&invalAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 41, From: 3},
			"03" + "01000000" + "0700000000000000" + "0300000000000000" +
				"2900000000000000" + "03000000",
		},
		{
			"ownerUpdate",
			&ownerUpdate{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Owner: 2, Paged: true},
			"04" + "01000000" + "0700000000000000" + "0300000000000000" +
				"02000000" + "01",
		},
		{
			"ownerXfer",
			&ownerXfer{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Readers: []mesh.NodeID{2}, Version: 5, Seq: 13},
			"05" + "01000000" + "0700000000000000" + "0300000000000000" +
				"01000000" + "02000000" + // Readers
				"0500000000000000" + "0d00000000000000" + "00000000",
		},
		{
			"ownerXferAck",
			&ownerXferAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 13, Accepted: true, From: 2},
			"06" + "01000000" + "0700000000000000" + "0300000000000000" +
				"0d00000000000000" + "01" + "02000000",
		},
		{
			"pageOffer",
			&pageOffer{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Data: []byte{1, 2, 3}, Version: 5, Seq: 17},
			"07" + "01000000" + "0700000000000000" + "0300000000000000" +
				"03000000" + "010203" +
				"0500000000000000" + "1100000000000000" + "00000000",
		},
		{
			"pageOfferAck",
			&pageOfferAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 17, From: 3},
			"08" + "01000000" + "0700000000000000" + "0300000000000000" +
				"1100000000000000" + "00" + "03000000",
		},
		{
			"toPager",
			&toPager{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Data: []byte{9, 8}, Dirty: true, Seq: 19, From: 2},
			"09" + "01000000" + "0700000000000000" + "0300000000000000" +
				"02000000" + "0908" +
				"01" + "00" + "1300000000000000" + "02000000",
		},
		{
			"toPagerAck",
			&toPagerAck{Obj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Seq: 19},
			"0a" + "01000000" + "0700000000000000" + "0300000000000000" +
				"1300000000000000",
		},
		{
			"pushScanAck",
			&pushScanAck{SrcObj: vm.ObjID{Node: 1, Seq: 7}, Idx: 3, Found: true},
			"0b" + "01000000" + "0700000000000000" + "0300000000000000" + "01",
		},
	}
}

// Corrupt input must come back as errors, never panics or silent
// acceptance.
func TestWireDecodeRejectsCorrupt(t *testing.T) {
	c := WireCodec()
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"unknownKind", []byte{0x7f}},
		{"truncatedHeader", []byte{0x02, 0x01}},
		{"trailingBytes", append(mustEncode(t, &pushScanAck{}), 0x00)},
		{"badBool", func() []byte {
			b := mustEncode(t, &pushScanAck{Found: true})
			b[len(b)-1] = 2 // Found byte: neither 0 nor 1
			return b
		}()},
		{"hugeLength", func() []byte {
			// pageOffer whose Data length claims ~4 GB.
			b := mustEncode(t, &pageOffer{Obj: vm.ObjID{Node: 1, Seq: 1}})
			// Data length field sits right after kind+Obj+Idx = 1+12+8.
			copy(b[21:25], []byte{0xfe, 0xff, 0xff, 0xfe})
			return b
		}()},
	}
	for _, tc := range cases {
		if m, err := c.DecodeMsg(tc.b); err == nil {
			t.Errorf("%s: decode accepted corrupt input as %T %+v", tc.name, m, m)
		}
	}
}

// A reader list's claimed count must be paid for by the bytes that follow
// before the decoder sizes a slice for it: a 33-byte grant frame claiming
// 8192 readers used to allocate 64 KB and then fail anyway.
func TestWireShortReaderListAllocatesLittle(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// kind, Obj, Idx, Lock, nil Data, three flags: 29 bytes, then the
	// Readers count, and the frame ends there.
	b := mustEncode(t, &grantMsg{Obj: vm.ObjID{Node: 1, Seq: 7}, Readers: []mesh.NodeID{}})[:33]
	binary.LittleEndian.PutUint32(b[29:], 8192)
	c := WireCodec()
	var before, after runtime.MemStats
	const n = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if m, err := c.DecodeMsg(b); err == nil {
			t.Fatalf("decode accepted a truncated reader list as %+v", m)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("a failed decode allocates %d B, want < 1 KB", per)
	}
}

// raceBuild reports a -race test binary, whose instrumentation allocates.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func mustEncode(t *testing.T, m interface{}) []byte {
	t.Helper()
	b, err := WireCodec().AppendMsg(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The codec is registered under the channel's interned name at init.
func TestWireCodecRegistered(t *testing.T) {
	if xport.LookupWireCodec(Proto.Name()) == nil {
		t.Fatalf("no wire codec registered for %q", Proto.Name())
	}
}

// FuzzDecodeFrame holds the codec to two properties on arbitrary bytes:
// decode never panics, and anything that decodes re-encodes and
// re-decodes to a deeply equal value (the wire form is canonical).
func FuzzDecodeFrame(f *testing.F) {
	c := WireCodec()
	for _, m := range wireSpecimens() {
		enc, err := c.AppendMsg(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		in := append([]byte(nil), b...)
		m, err := c.DecodeMsg(in)
		if err != nil {
			return
		}
		// The reader reuses its buffer: poison the input, and the message
		// must still be what a fresh decode of the same bytes gives.
		for i := range in {
			in[i] = 0xFF
		}
		if fresh, err := c.DecodeMsg(b); err != nil || !reflect.DeepEqual(m, fresh) {
			t.Fatalf("decoded %T aliases its input: after poisoning %#v, fresh %#v (err %v)", m, m, fresh, err)
		}
		enc, err := c.AppendMsg(nil, m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		m2, err := c.DecodeMsg(enc)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode not idempotent:\n  first  %#v\n  second %#v", m, m2)
		}
	})
}

// captureTransport records what is sent through it.
type captureTransport struct{ sent []interface{} }

func (*captureTransport) Register(mesh.NodeID, xport.ProtoID, xport.Handler) {}
func (c *captureTransport) Send(_, _ mesh.NodeID, _ xport.ProtoID, _ int, m interface{}) {
	c.sent = append(c.sent, m)
}

// A sent grant's page snapshot has one last consumer on the sending side: a
// socket transport's writer once the frame is written (WireSent), or, when
// the send comes back as a Nack instead, handleNack, which returns the box
// to its free list as well. Under -race a returned buffer is poisoned: that
// is how "returned" is observable.
func TestGrantSnapshotReturnsOnWireSentOrNack(t *testing.T) {
	eng := sim.NewEngine()
	tr := &captureTransport{}
	nd := NewNode(eng, vm.NewKernel(eng, 0, vm.Costs{}, vm.NewPhysMem(0), true), tr, DefaultConfig())
	in := &Instance{nd: nd}
	probe := vm.GetPageBuf()
	clear(probe)
	vm.PutPageBuf(probe)
	poisoning := probe[0] != 0
	send := func() (*grantMsg, []byte) {
		page := vm.GetPageBuf()
		clear(page)
		in.sendGrant(1, grantMsg{Obj: vm.ObjID{Node: 1, Seq: 7}, Data: page, HasData: true})
		return tr.sent[len(tr.sent)-1].(*grantMsg), page
	}

	g, page := send()
	g.WireSent()
	if poisoning && page[0] == 0 {
		t.Error("WireSent left the written grant's snapshot out of the pool")
	}

	g, page = send()
	nd.handle(1, xport.Nack{Dst: 1, Proto: Proto, Msg: g})
	if poisoning && page[0] == 0 {
		t.Error("handleNack left the bounced grant's snapshot out of the pool")
	}
	if !reflect.DeepEqual(*g, grantMsg{}) || nd.pools.grant.Get(grantMsg{}) != g {
		t.Error("handleNack did not return the bounced grant's box to the free list")
	}
}
