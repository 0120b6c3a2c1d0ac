package rng

import "wsmalloc/internal/snapshot"

// EncodeState serializes the generator's full cursor — the PCG state and
// stream selector; the samplers cache nothing between draws — so a
// restored stream continues with exactly the draws the uninterrupted
// stream would have produced.
func (r *RNG) EncodeState(e *snapshot.Encoder) {
	e.Section("rng")
	e.U64(r.state)
	e.U64(r.inc)
}

// DecodeState restores a cursor saved by EncodeState.
func (r *RNG) DecodeState(d *snapshot.Decoder) {
	d.Section("rng")
	r.state = d.U64()
	r.inc = d.U64()
}
