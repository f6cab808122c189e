package detail_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
)

// footprintsHash hashes the footprints net by net: each net's count of
// nonzero words, then each nonzero word's index (uint32) and value
// (uint64), little-endian. It depends on the bits recorded, not on how
// they are stored.
func footprintsHash(fp detail.Footprints) string {
	h := sha256.New()
	var b [12]byte
	for i := 0; i < fp.Len(); i++ {
		idx, words := fp.Words(i)
		binary.LittleEndian.PutUint32(b[:4], uint32(len(idx)))
		h.Write(b[:4])
		for k, j := range idx {
			binary.LittleEndian.PutUint32(b[:4], uint32(j))
			binary.LittleEndian.PutUint64(b[4:], words[k])
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
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
