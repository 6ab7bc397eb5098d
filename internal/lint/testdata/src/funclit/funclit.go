// Package funclit is the call-graph fixture for function literals: the
// call inside the literal belongs to the literal's node, not its parent's.
package funclit

func step() {}

func spawn() {
	go func() {
		step()
	}()
}
