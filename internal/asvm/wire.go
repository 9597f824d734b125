package asvm

import (
	"encoding/binary"
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// This file is the ASVM wire codec: the binary form of every protocol
// message, registered with the xport wire-codec registry so a real
// network transport (internal/xport/netx) can carry the same messages the
// simulated transports pass as Go values. The layout mirrors the paper's
// STS framing philosophy — a small fixed header of untyped fields,
// optionally followed by one page of contents — but is defined by this
// codec alone: all fields little-endian, one leading kind byte (the same
// xport.MsgKind the in-process dispatcher switches on), strings nowhere.
//
// Variable-length fields use a u32 count with ^0 as the nil sentinel, so
// a nil Data slice (metadata-only grants and offers) survives a round
// trip as nil, not as an 8 KB zero page — decode(encode(m)) == m exactly,
// which the fuzz target holds the codec to.

// wireNil is the length sentinel for a nil slice.
const wireNil = ^uint32(0)

// maxWireSlice bounds decoded slice lengths (defense against a corrupt or
// hostile length field allocating gigabytes). One count of page data plus
// generous headroom for reader lists.
const maxWireSlice = 4 * vm.PageSize

type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wireWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wireWriter) node(n mesh.NodeID) { w.u32(uint32(int32(n))) }
func (w *wireWriter) obj(id vm.ObjID) {
	w.node(id.Node)
	w.u64(id.Seq)
}
func (w *wireWriter) idx(i vm.PageIdx) { w.u64(uint64(i)) }
func (w *wireWriter) data(b []byte) {
	if b == nil {
		w.u32(wireNil)
		return
	}
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}
func (w *wireWriter) nodes(ns []mesh.NodeID) {
	if ns == nil {
		w.u32(wireNil)
		return
	}
	w.u32(uint32(len(ns)))
	for _, n := range ns {
		w.node(n)
	}
}

type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}
func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (r *wireReader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		// Any other byte is corruption, not a spelling of true.
		r.bad = true
		return false
	}
}
func (r *wireReader) node() mesh.NodeID { return mesh.NodeID(int32(r.u32())) }
func (r *wireReader) obj() vm.ObjID {
	n := r.node()
	return vm.ObjID{Node: n, Seq: r.u64()}
}
func (r *wireReader) idx() vm.PageIdx { return vm.PageIdx(r.u64()) }
func (r *wireReader) data() []byte {
	n := r.u32()
	if n == wireNil {
		return nil
	}
	if n > maxWireSlice {
		r.bad = true
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return copyData(b) // a copy (a page: pooled): DecodeMsg must not retain its input
}
func (r *wireReader) nodes() []mesh.NodeID {
	n := r.u32()
	if n == wireNil {
		return nil
	}
	if n > maxWireSlice/4 {
		r.bad = true
		return nil
	}
	out := make([]mesh.NodeID, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, r.node())
	}
	if r.bad {
		return nil
	}
	return out
}

// wireCodec implements xport.WireCodec for the ASVM channel. Stateless, so
// one value serves every goroutine.
type wireCodec struct{}

// WireCodec returns the codec netx uses for the "asvm" channel. It is
// also registered at package init, so merely importing asvm makes the
// channel wire-capable.
func WireCodec() xport.WireCodec { return wireCodec{} }

func init() {
	xport.RegisterWireCodec(Proto.Name(), wireCodec{})
}

// AppendMsg implements xport.WireCodec. Pointer and value forms both
// encode (the hot kinds travel as pooled pointers in-process; a caller
// holding a value is equally valid).
func (wireCodec) AppendMsg(dst []byte, m interface{}) ([]byte, error) {
	w := wireWriter{b: dst}
	switch v := m.(type) {
	case *accessReq:
		encodeAccessReq(&w, *v)
	case accessReq:
		encodeAccessReq(&w, v)
	case *grantMsg:
		encodeGrant(&w, *v)
	case grantMsg:
		encodeGrant(&w, v)
	case *invalMsg:
		encodeInval(&w, *v)
	case invalMsg:
		encodeInval(&w, v)
	case *invalAck:
		encodeInvalAck(&w, *v)
	case invalAck:
		encodeInvalAck(&w, v)
	case *ownerUpdate:
		encodeOwnerUpdate(&w, *v)
	case ownerUpdate:
		encodeOwnerUpdate(&w, v)
	case ownerXfer:
		w.u8(uint8(msgOwnerXfer))
		w.obj(v.Obj)
		w.idx(v.Idx)
		w.nodes(v.Readers)
		w.u64(v.Version)
		w.u64(v.Seq)
		w.node(v.From)
	case ownerXferAck:
		w.u8(uint8(msgOwnerXferAck))
		w.obj(v.Obj)
		w.idx(v.Idx)
		w.u64(v.Seq)
		w.boolean(v.Accepted)
		w.node(v.From)
	case pageOffer:
		w.u8(uint8(msgPageOffer))
		w.obj(v.Obj)
		w.idx(v.Idx)
		w.data(v.Data)
		w.u64(v.Version)
		w.u64(v.Seq)
		w.node(v.From)
	case pageOfferAck:
		w.u8(uint8(msgPageOfferAck))
		w.obj(v.Obj)
		w.idx(v.Idx)
		w.u64(v.Seq)
		w.boolean(v.Accepted)
		w.node(v.From)
	case toPager:
		w.u8(uint8(msgToPager))
		w.obj(v.Obj)
		w.idx(v.Idx)
		w.data(v.Data)
		w.boolean(v.Dirty)
		w.boolean(v.Lost)
		w.u64(v.Seq)
		w.node(v.From)
	case toPagerAck:
		w.u8(uint8(msgToPagerAck))
		w.obj(v.Obj)
		w.idx(v.Idx)
		w.u64(v.Seq)
	case pushScanAck:
		w.u8(uint8(msgPushScanAck))
		w.obj(v.SrcObj)
		w.idx(v.Idx)
		w.boolean(v.Found)
	default:
		return dst, fmt.Errorf("asvm wire: cannot encode %T", m)
	}
	return w.b, nil
}

func encodeAccessReq(w *wireWriter, v accessReq) {
	w.u8(uint8(msgAccessReq))
	w.obj(v.Obj)
	w.obj(v.Target)
	w.idx(v.Idx)
	w.u8(uint8(v.Want))
	w.u8(uint8(v.ReqKind))
	w.node(v.Origin)
	w.u32(uint32(int32(v.Hops)))
	w.boolean(v.Scanning)
	w.boolean(v.ScannedAll)
	w.boolean(v.ForHome)
	w.node(v.ScanStart)
	w.node(v.LastFrom)
}

func encodeGrant(w *wireWriter, v grantMsg) {
	w.u8(uint8(msgGrant))
	w.obj(v.Obj)
	w.idx(v.Idx)
	w.u8(uint8(v.Lock))
	w.data(v.Data)
	w.boolean(v.HasData)
	w.boolean(v.Fresh)
	w.boolean(v.Ownership)
	w.nodes(v.Readers)
	w.u64(v.Version)
	w.boolean(v.Retry)
	w.boolean(v.AtPagerCopy)
	w.boolean(v.Unavailable)
	w.node(v.From)
}

func encodeInval(w *wireWriter, v invalMsg) {
	w.u8(uint8(msgInval))
	w.obj(v.Obj)
	w.idx(v.Idx)
	w.node(v.NewOwner)
	w.u64(v.Seq)
	w.node(v.From)
}

func encodeInvalAck(w *wireWriter, v invalAck) {
	w.u8(uint8(msgInvalAck))
	w.obj(v.Obj)
	w.idx(v.Idx)
	w.u64(v.Seq)
	w.node(v.From)
}

func encodeOwnerUpdate(w *wireWriter, v ownerUpdate) {
	w.u8(uint8(msgOwnerUpdate))
	w.obj(v.Obj)
	w.idx(v.Idx)
	w.node(v.Owner)
	w.boolean(v.Paged)
}

// DecodeMsg implements xport.WireCodec. The returned form is exactly what
// Node.handle expects: the pooled hot kinds come back as fresh pointers
// (each decode allocates its own box, so pooling at the dispatcher stays
// exactly-once safe), the rest as values.
func (wireCodec) DecodeMsg(b []byte) (interface{}, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("asvm wire: empty message")
	}
	r := wireReader{b: b[1:]}
	var m interface{}
	switch xport.MsgKind(b[0]) {
	case msgAccessReq:
		v := &accessReq{}
		v.Obj = r.obj()
		v.Target = r.obj()
		v.Idx = r.idx()
		v.Want = vm.Prot(r.u8())
		v.ReqKind = reqKind(r.u8())
		v.Origin = r.node()
		v.Hops = int(int32(r.u32()))
		v.Scanning = r.boolean()
		v.ScannedAll = r.boolean()
		v.ForHome = r.boolean()
		v.ScanStart = r.node()
		v.LastFrom = r.node()
		m = v
	case msgGrant:
		v := &grantMsg{}
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Lock = vm.Prot(r.u8())
		v.Data = r.data()
		v.HasData = r.boolean()
		v.Fresh = r.boolean()
		v.Ownership = r.boolean()
		v.Readers = r.nodes()
		v.Version = r.u64()
		v.Retry = r.boolean()
		v.AtPagerCopy = r.boolean()
		v.Unavailable = r.boolean()
		v.From = r.node()
		m = v
	case msgInval:
		v := &invalMsg{}
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.NewOwner = r.node()
		v.Seq = r.u64()
		v.From = r.node()
		m = v
	case msgInvalAck:
		v := &invalAck{}
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Seq = r.u64()
		v.From = r.node()
		m = v
	case msgOwnerUpdate:
		v := &ownerUpdate{}
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Owner = r.node()
		v.Paged = r.boolean()
		m = v
	case msgOwnerXfer:
		var v ownerXfer
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Readers = r.nodes()
		v.Version = r.u64()
		v.Seq = r.u64()
		v.From = r.node()
		m = v
	case msgOwnerXferAck:
		var v ownerXferAck
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Seq = r.u64()
		v.Accepted = r.boolean()
		v.From = r.node()
		m = v
	case msgPageOffer:
		var v pageOffer
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Data = r.data()
		v.Version = r.u64()
		v.Seq = r.u64()
		v.From = r.node()
		m = v
	case msgPageOfferAck:
		var v pageOfferAck
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Seq = r.u64()
		v.Accepted = r.boolean()
		v.From = r.node()
		m = v
	case msgToPager:
		var v toPager
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Data = r.data()
		v.Dirty = r.boolean()
		v.Lost = r.boolean()
		v.Seq = r.u64()
		v.From = r.node()
		m = v
	case msgToPagerAck:
		var v toPagerAck
		v.Obj = r.obj()
		v.Idx = r.idx()
		v.Seq = r.u64()
		m = v
	case msgPushScanAck:
		var v pushScanAck
		v.SrcObj = r.obj()
		v.Idx = r.idx()
		v.Found = r.boolean()
		m = v
	default:
		return nil, fmt.Errorf("asvm wire: unknown kind %d", b[0])
	}
	if r.bad {
		return nil, fmt.Errorf("asvm wire: truncated or corrupt kind-%d message", b[0])
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("asvm wire: %d trailing bytes after kind-%d message", len(r.b), b[0])
	}
	return m, nil
}

var _ xport.WireCodec = wireCodec{}
