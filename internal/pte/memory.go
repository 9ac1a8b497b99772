package pte

// lineBuffer models the P-MEM input scratchpad (§6.2, "Accelerator Memory"):
// instead of holding the entire input frame (tens of MB for 4K video), the
// P-MEM holds a sliding window of input rows, like the line buffers of an
// ISP. The filtering stage's stencil-like access pattern — a small block of
// adjacent pixels whose rows drift slowly across the raster scan — makes a
// row-granular LRU window an accurate model: each first touch of a
// non-resident row triggers one DMA refill of that row from DRAM.
type lineBuffer struct {
	capacity int     // rows that fit in the scratchpad
	lastUse  []int64 // per input row: clock of its last touch, 0 if not resident
	resident []int   // the resident rows, in no particular order
	clock    int64
	refills  int64
}

// newLineBuffer sizes the window for an input frame (RGB24 rows).
func newLineBuffer(sizeBytes, frameWidth, frameHeight int) *lineBuffer {
	rowBytes := frameWidth * 3
	capacity := 1
	if rowBytes > 0 {
		capacity = sizeBytes / rowBytes
		if capacity < 1 {
			capacity = 1
		}
	}
	return &lineBuffer{capacity: capacity, lastUse: make([]int64, frameHeight)}
}

// touch records an access to an input row in [0, frameHeight), refilling it
// if non-resident and evicting the least-recently-used row when the window
// is full. Last-use clocks are distinct, so the victim is unique.
func (lb *lineBuffer) touch(row int) {
	lb.clock++
	if lb.lastUse[row] != 0 {
		lb.lastUse[row] = lb.clock
		return
	}
	lb.refills++
	if len(lb.resident) < lb.capacity {
		lb.resident = append(lb.resident, row)
	} else {
		victim := 0
		for k, r := range lb.resident {
			if lb.lastUse[r] < lb.lastUse[lb.resident[victim]] {
				victim = k
			}
		}
		lb.lastUse[lb.resident[victim]] = 0
		lb.resident[victim] = row
	}
	lb.lastUse[row] = lb.clock
}
