package lattice

// CloneScratch returns an independent copy of the lattice's occupancy
// state for scratch routing: the wire, via and edge slabs are deep-copied,
// while the tracer, the edge-claim counters and the cached search buffers
// are dropped. Routing on the clone is therefore byte-identical to routing
// on the original (occupancy is the only state a search reads) but emits
// no trace and can never leak state back: commits on the clone touch only
// its own slabs.
//
// The ordering-portfolio racer is the consumer: each candidate policy
// routes the stage-4 queue on its own clone taken from the post-stage-3
// lattice, concurrently with its siblings, and only the winning policy is
// replayed on the real lattice with the real observers attached.
func (la *Lattice) CloneScratch() *Lattice {
	cp := &Lattice{
		D: la.D, Pitch: la.Pitch,
		X0: la.X0, Y0: la.Y0,
		NX: la.NX, NY: la.NY, Layers: la.Layers,
		rWireWire: la.rWireWire, rWireVia: la.rWireVia, rViaVia: la.rViaVia,
		rShapeW: la.rShapeW, rShapeV: la.rShapeV,
	}
	cp.wireOcc = append([]int32(nil), la.wireOcc...)
	if la.viaOcc != nil {
		cp.viaOcc = append([]int32(nil), la.viaOcc...)
	}
	for k := range la.edgeOcc {
		if la.edgeOcc[k] != nil {
			cp.edgeOcc[k] = append([]int32(nil), la.edgeOcc[k]...)
		}
	}
	return cp
}
