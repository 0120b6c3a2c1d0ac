// The window codec: one profile window serializes to a versioned,
// checksummed internal/snapshot blob (the "WSMS" envelope gives magic,
// format version, CRC payload checksum and truncation detection for
// free). Inside the envelope, section markers delimit the window's
// parts; the export-shaped parts (meta, records, fragmentation,
// profiles) ride as JSON blobs — Go's JSON round-trips float64 exactly
// and struct field order is fixed, so encoding is deterministic (the
// SeriesRing checkpoint uses the same idiom) — while the sketches use
// their native bit-exact state codec. DecodeWindow never panics on
// hostile input: truncation, checksum flips and version skew all
// surface as errors (FuzzWindowDecode enforces this).
package gwp

import (
	"encoding/json"
	"fmt"

	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/snapshot"
)

// EncodeWindow serializes one window.
func EncodeWindow(w *Window) ([]byte, error) {
	var e snapshot.Encoder
	e.Section("gwp.window")
	jsonBlob := func(tag string, v any) error {
		e.Section(tag)
		blob, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("gwp: marshal %s: %w", tag, err)
		}
		e.Bytes(blob)
		return nil
	}
	if err := jsonBlob("gwp.meta", w.Meta); err != nil {
		return nil, err
	}
	if err := jsonBlob("gwp.records", w.Records); err != nil {
		return nil, err
	}
	if err := jsonBlob("gwp.frag", w.Frag); err != nil {
		return nil, err
	}
	if err := jsonBlob("gwp.profiles", heapprof.Doc{Profiles: w.Profiles}); err != nil {
		return nil, err
	}
	e.Section("gwp.sketches")
	if n := len(w.Sketches); n != 0 && n != len(SketchNames) {
		return nil, fmt.Errorf("gwp: window has %d sketches, want 0 or %d", n, len(SketchNames))
	}
	e.Len(len(w.Sketches))
	for i, sk := range w.Sketches {
		e.String(SketchNames[i])
		sk.EncodeState(&e)
	}
	return e.Finish(), nil
}

// DecodeWindow parses a window blob written by EncodeWindow. Corrupt,
// truncated or version-skewed blobs return an error; DecodeWindow
// never panics.
func DecodeWindow(blob []byte) (*Window, error) {
	d, err := snapshot.NewDecoder(blob)
	if err != nil {
		return nil, err
	}
	d.Section("gwp.window")
	w := &Window{}
	unmarshal := func(tag string, v any) {
		d.Section(tag)
		b := d.Bytes()
		if d.Err() != nil {
			return
		}
		if err := json.Unmarshal(b, v); err != nil {
			d.Fail("gwp: unmarshal %s: %v", tag, err)
		}
	}
	unmarshal("gwp.meta", &w.Meta)
	unmarshal("gwp.records", &w.Records)
	unmarshal("gwp.frag", &w.Frag)
	var doc heapprof.Doc
	unmarshal("gwp.profiles", &doc)
	w.Profiles = doc.Profiles
	d.Section("gwp.sketches")
	n := d.Len(1)
	if d.Err() == nil && n != 0 && n != len(SketchNames) {
		d.Fail("gwp: window has %d sketches, want 0 or %d", n, len(SketchNames))
	}
	if d.Err() == nil && n > 0 {
		w.Sketches = NewSketchSet()
		for i := 0; i < n; i++ {
			if name := d.String(); d.Err() == nil && name != SketchNames[i] {
				d.Fail("gwp: sketch %d named %q, want %q", i, name, SketchNames[i])
			}
			w.Sketches[i].DecodeState(d)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if w.Meta.Tier < 0 || w.Meta.Tier >= tierCount || w.Meta.Index < 0 {
		return nil, fmt.Errorf("gwp: window %q has bad tier/index %d/%d", w.Meta.ID, w.Meta.Tier, w.Meta.Index)
	}
	if want := WindowID(w.Meta.Tier, w.Meta.Index); w.Meta.ID != want {
		return nil, fmt.Errorf("gwp: window id %q does not match tier/index (%s)", w.Meta.ID, want)
	}
	return w, nil
}
