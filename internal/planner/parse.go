package planner

import (
	"fmt"
	"math"
	"strings"

	"mobweb/internal/content"
	"mobweb/internal/document"
)

// This file owns the wire-spelling parsing of the planner's requests and
// the HTTP gateway's parameters: both accept the same spellings,
// case-insensitively, and reject the same garbage with the same
// client-facing messages.

// ParseNotion maps a wire spelling ("IC", "qic", "MQIC", …) to its
// content notion, case-insensitively. The empty string is rejected;
// callers treat absence as "use the default" before calling.
func ParseNotion(s string) (content.Notion, error) {
	switch strings.ToUpper(s) {
	case "IC":
		return content.NotionIC, nil
	case "QIC":
		return content.NotionQIC, nil
	case "MQIC":
		return content.NotionMQIC, nil
	default:
		return 0, fmt.Errorf("unknown notion %q (want IC, QIC or MQIC)", s)
	}
}

// ParseLOD maps a wire spelling ("paragraph", "Section", …) to its level
// of detail, case-insensitively. The empty string is rejected; callers
// treat absence as "use the default" before calling.
func ParseLOD(s string) (document.LOD, error) {
	lod, err := document.ParseLOD(strings.ToLower(s))
	if err != nil {
		return 0, fmt.Errorf("unknown LOD %q (want document, section, subsection, subsubsection or paragraph)", s)
	}
	return lod, nil
}

// ValidateGamma vets a client-supplied redundancy ratio at
// request-resolution time, so NaN, negative and sub-1 values surface as a
// client-facing message instead of a deep core/erasure error string.
// Zero means "use the server default" and is accepted.
func ValidateGamma(g float64) error {
	if g == 0 {
		return nil
	}
	if math.IsNaN(g) || math.IsInf(g, 0) || g < 1 {
		return fmt.Errorf("gamma must be a finite number >= 1 (got %v)", g)
	}
	return nil
}
