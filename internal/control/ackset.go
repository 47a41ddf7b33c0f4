package control

import (
	"fmt"

	"rapid/internal/packet"
)

// ackSet is a set of delivered packet IDs: a bitset indexed by ID,
// grown to the highest ID added. Runs number packets densely from
// GenConfig.FirstID and admit only IDs in [0, packet.MaxID), so a set
// over P packets costs about P/8 bytes and never more than
// packet.MaxID/8.
type ackSet []uint64

// has reports whether id is in the set. IDs past the grown length,
// negative ones included, are absent; has never allocates.
func (a ackSet) has(id packet.ID) bool {
	w := uint64(id) >> 6
	return w < uint64(len(a)) && a[w]&(1<<(uint64(id)&63)) != 0
}

// add inserts id and reports whether it was new. An ID outside
// [0, packet.MaxID) panics: routing.Run rejects such packets at
// generation, so one reaching an ack set is a bug.
func (a *ackSet) add(id packet.ID) bool {
	if id < 0 || id >= packet.MaxID {
		panic(fmt.Sprintf("control: ack for packet %d outside [0,%d)", id, packet.MaxID))
	}
	w := int(id >> 6)
	if w >= len(*a) {
		*a = append(*a, make([]uint64, w+1-len(*a))...)
	}
	bit := uint64(1) << (uint64(id) & 63)
	if (*a)[w]&bit != 0 {
		return false
	}
	(*a)[w] |= bit
	return true
}
