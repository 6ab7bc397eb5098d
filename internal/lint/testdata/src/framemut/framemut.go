// Fixture for the framemut analyzer: writes through the shared,
// immutable slices handed out by the frame cache and the planner's
// frame-serving handle.
package framemut

import (
	"mobweb/internal/framecache"
	"mobweb/internal/planner"
)

func mutateShared(c *framecache.Cache[framecache.Key, []byte], r *planner.Resolved) {
	frame, ok := c.Get(framecache.Key{Plan: "p"})
	if ok {
		frame[0] = 1 // want "store through a slice shared"
	}
	frame[1]++                    // want "store through a slice shared"
	copy(frame, []byte("x"))      // want "copy into a slice shared"
	_ = append(frame, 0xff)       // want "append to a slice shared"
	sub := frame[4:]              // re-slicing keeps the taint
	sub[0] = 9                    // want "store through a slice shared"

	cooked, _ := c.GetOrLoad(framecache.Key{Plan: "p"}, "v", nil)
	cooked[2] ^= 0xff // want "store through a slice shared"

	wire, _ := r.Frame(0)
	wire[0] = 0 // want "store through a slice shared"

	symbol, _ := r.FountainFrame(42, 0, 0)
	symbol[0] = 0 // want "store through a slice shared"
}

func allowedCopies(c *framecache.Cache[framecache.Key, []byte], r *planner.Resolved) {
	frame, _ := c.GetOrLoad(framecache.Key{Plan: "p"}, "v", nil)
	private := append([]byte(nil), frame...) // fresh backing array: fine
	private[0] = 1

	cp := make([]byte, len(frame))
	copy(cp, frame) // shared slice as the SOURCE: fine
	cp[0] = 2

	frame = cp // rebinding the local clears the taint
	frame[0] = 3

	wire, _ := r.Frame(0)
	total := 0
	for _, b := range wire {
		total += int(b) // reads are fine
	}
	_ = total
}
