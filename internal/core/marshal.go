package core

import (
	"bytes"
	"errors"
)

// ErrLegacySnapshot refuses a body in the field-by-field "SWAT" snapshot
// format that preceded the summary frame. Such a body cannot be a
// summary frame: its first four bytes would declare a ~1.4 GB body.
var ErrLegacySnapshot = errors.New("core: legacy SWAT snapshot format is no longer supported")

// MarshalBinary serializes the full tree state as its summary frame
// (AppendSummary). It implements encoding.BinaryMarshaler; a restored
// tree continues exactly where the original left off.
func (t *Tree) MarshalBinary() ([]byte, error) {
	return t.AppendSummary(nil), nil
}

// UnmarshalBinary restores a tree from a summary frame, replacing the
// receiver's state entirely; on error the receiver is untouched. It
// implements encoding.BinaryUnmarshaler.
func (t *Tree) UnmarshalBinary(data []byte) error {
	if bytes.HasPrefix(data, []byte("SWAT")) {
		return ErrLegacySnapshot
	}
	s, err := DecodeSummary(data)
	if err != nil {
		return err
	}
	return t.ResetToSummary(s)
}
