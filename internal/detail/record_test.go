package detail_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/global"
	"stitchroute/internal/plan"
)

// footprintsHash hashes the footprints net by net: each net's count of
// nonzero words, then each nonzero word's index (uint32) and value
// (uint64), little-endian. It depends on the bits recorded, not on how
// they are stored.
func footprintsHash(fp plan.Footprints) string {
	h := sha256.New()
	for _, f := range fp.Nets {
		hashFootprint(h, f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFootprint writes one footprint to h as footprintsHash does.
func hashFootprint(h hash.Hash, f plan.Footprint) {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(f)))
	h.Write(b[:4])
	for _, p := range f {
		binary.LittleEndian.PutUint32(b[:4], uint32(p.Idx))
		binary.LittleEndian.PutUint64(b[4:], p.Word)
		h.Write(b[:])
	}
}

// TestRecordingHash pins the ECO recording of two cold routes: the
// activity and write footprints replay's clean test reads. Replay is
// byte-equal to a cold route only while the footprints cover what the
// cold run read and wrote, so a change to how they are recorded must
// keep these hashes, not just the routes.
func TestRecordingHash(t *testing.T) {
	for _, tc := range []struct{ circuit, acts, wacts string }{
		{"Primary1", "3137d261a18435c0aafbb4bbb2e19b07190797c6957d464d88934383a9fcfbbb", "9249775a5efaec55194a8e94d9d3b23e5cc39ebb3a76043f0c270c7c00a602a1"},
		{"S9234", "bc7a48fcede553aae42fd1490f8ca3e2c53cc43f85f94d305eb32d20c9bf3b8f", "0687a63e27f84dc3ce8d8a20be85275c9033584b8dd2d7998c161344c2a92644"},
	} {
		spec, err := bench.ByName(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		c := bench.Generate(spec)
		res, err := core.Route(c, core.StitchAware())
		if err != nil {
			t.Fatal(err)
		}
		if h := footprintsHash(res.ECO.Acts); h != tc.acts {
			t.Errorf("%s: activity footprints hash %.12s, want %.12s", tc.circuit, h, tc.acts)
		}
		if h := footprintsHash(res.ECO.WActs); h != tc.wacts {
			t.Errorf("%s: write footprints hash %.12s, want %.12s", tc.circuit, h, tc.wacts)
		}
	}
}

// globalTraceHash hashes the global trace net by net in ascending ID
// order: the ID, the read-set as footprintsHash writes a footprint, then
// the committed edges' count and tile coordinates, little-endian uint32.
func globalTraceHash(tr *global.Trace) string {
	ids := make([]int, 0, len(tr.Nets))
	for id := range tr.Nets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var b [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for _, id := range ids {
		nt := tr.Nets[id]
		put(id)
		hashFootprint(h, nt.ReadSet)
		put(len(nt.Edges))
		for _, e := range nt.Edges {
			put(e.A.TX)
			put(e.A.TY)
			put(e.B.TX)
			put(e.B.TY)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGlobalTraceHash pins the global router's ECO trace of two cold
// routes: each net's read-set, the tiles its searches popped, and its
// committed edges. The global replay is byte-equal to a cold pass only
// while a read-set covers every tile the net's searches read, so a
// change to how the read-sets are recorded or stored must keep these
// hashes.
func TestGlobalTraceHash(t *testing.T) {
	for _, tc := range []struct{ circuit, want string }{
		{"Primary1", "bf2355de470deaf58f7df9fd12648f4d92c11c7382665f342ddec3322e0da1ed"},
		{"S9234", "a251a356a49ec795f6e17a344896b17eda8f832ded6a967376f8647be4640ac7"},
	} {
		spec, err := bench.ByName(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		c := bench.Generate(spec)
		res, err := core.Route(c, core.StitchAware())
		if err != nil {
			t.Fatal(err)
		}
		if h := globalTraceHash(res.ECO.Global); h != tc.want {
			t.Errorf("%s: global trace hash %.12s, want %.12s", tc.circuit, h, tc.want)
		}
	}
}
