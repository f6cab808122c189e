package fracture

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"
)

// WriteShots serializes the shot list in a canonical text form: one shot
// per line, layer then rectangle(s), in list order. Fracture emits shots
// in a canonical order, so two fracturing runs are byte-identical exactly
// when their serializations (and hence ShotsHash values) match.
func WriteShots(w io.Writer, shots []Shot) error {
	const flushAt = 32 << 10
	buf := make([]byte, 0, flushAt+128)
	for _, s := range shots {
		buf = AppendShot(buf, s, true)
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// AppendShot appends the shot's canonical line to dst: "R" or "L", the
// layer when withLayer is set, then the coordinates of A (and B for an
// L shot), space-separated and newline-terminated.
func AppendShot(dst []byte, s Shot, withLayer bool) []byte {
	if s.IsL() {
		dst = append(dst, 'L')
	} else {
		dst = append(dst, 'R')
	}
	if withLayer {
		dst = appendInts(dst, s.Layer)
	}
	dst = appendInts(dst, s.A.X0, s.A.Y0, s.A.X1, s.A.Y1)
	if s.IsL() {
		dst = appendInts(dst, s.B.X0, s.B.Y0, s.B.X1, s.B.Y1)
	}
	return append(dst, '\n')
}

// appendInts appends each value as " %d".
func appendInts(dst []byte, vs ...int) []byte {
	for _, v := range vs {
		dst = strconv.AppendInt(append(dst, ' '), int64(v), 10)
	}
	return dst
}

// ShotsHash returns the SHA-256 of the canonical shot serialization —
// the write-prep analog of nlio.RoutesHash, used by the harness to
// assert that fracturing is deterministic.
func ShotsHash(shots []Shot) (string, error) {
	h := sha256.New()
	if err := WriteShots(h, shots); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
