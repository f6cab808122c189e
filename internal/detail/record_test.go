package detail_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/global"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
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

var update = flag.Bool("update", false, "rewrite the pinned hashes in testdata from the current tree")

// checkPinned compares got with the entries pinned in testdata/file,
// exactly and in order, or rewrites the file from got under -update
// (make repin).
func checkPinned[T any](t *testing.T, file string, got []T, name func(T) string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := harness.UpdateGolden(os.Stdout, path, got, name); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := harness.ReadGolden[T](path)
	if err != nil {
		t.Fatalf("%v (run make repin to create)", err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d circuits, want %d", path, len(want), len(got))
	}
	for i := range got {
		for _, bad := range harness.Compare(got[i], want[i]) {
			t.Errorf("%s: %s", name(got[i]), bad)
		}
	}
}

// pinnedCircuits are the cold routes whose recordings are pinned.
var pinnedCircuits = []string{"Primary1", "S9234"}

// routeCold generates the named benchmark and routes it cold under the
// stitch-aware config.
func routeCold(t *testing.T, name string) (*netlist.Circuit, *core.Result) {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := bench.Generate(spec)
	res, err := core.Route(c, core.StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// recordingHashes are one circuit's pinned footprint hashes.
type recordingHashes struct {
	Circuit string `json:"circuit"`
	Acts    string `json:"acts"`
	WActs   string `json:"wacts"`
}

// TestRecordingHash pins the ECO recording of two cold routes: the
// activity and write footprints replay's clean test reads. Replay is
// byte-equal to a cold route only while the footprints cover what the
// cold run read and wrote, so a change to how they are recorded must
// keep these hashes (testdata/recording.json), not just the routes.
func TestRecordingHash(t *testing.T) {
	var got []recordingHashes
	for _, name := range pinnedCircuits {
		_, res := routeCold(t, name)
		got = append(got, recordingHashes{name, footprintsHash(res.ECO.Acts), footprintsHash(res.ECO.WActs)})
	}
	checkPinned(t, "recording.json", got, func(h recordingHashes) string { return h.Circuit })
}

// globalTraceHash hashes the global trace net by net in ascending ID
// order: the ID, the read-set as footprintsHash writes a footprint, then
// the committed edges' count and tile coordinates, little-endian uint32.
// The trace is indexed like c's nets.
func globalTraceHash(c *netlist.Circuit, tr *global.Trace) string {
	slots := make([]int, len(tr.Nets))
	for i := range slots {
		slots[i] = i
	}
	sort.Slice(slots, func(i, j int) bool { return c.Nets[slots[i]].ID < c.Nets[slots[j]].ID })
	h := sha256.New()
	var b [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	for _, slot := range slots {
		nt := &tr.Nets[slot]
		put(c.Nets[slot].ID)
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

// traceHash is one circuit's pinned global trace hash.
type traceHash struct {
	Circuit string `json:"circuit"`
	Trace   string `json:"trace"`
}

// TestGlobalTraceHash pins the global router's ECO trace of two cold
// routes: each net's read-set, the tiles its searches popped, and its
// committed edges. The global replay is byte-equal to a cold pass only
// while a read-set covers every tile the net's searches read, so a
// change to how the read-sets are recorded or stored must keep these
// hashes (testdata/globaltrace.json).
func TestGlobalTraceHash(t *testing.T) {
	var got []traceHash
	for _, name := range pinnedCircuits {
		c, res := routeCold(t, name)
		got = append(got, traceHash{name, globalTraceHash(c, res.ECO.Global)})
	}
	checkPinned(t, "globaltrace.json", got, func(h traceHash) string { return h.Circuit })
}
