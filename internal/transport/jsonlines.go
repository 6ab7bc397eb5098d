package transport

import (
	"encoding/json"
	"io"
)

// The JSON control lines the protocol spoke before its binary records.
// No client or server speaks them any more: the benchmark's replay still
// times a JSON header with these two helpers, and ROADMAP item 14, which
// replaces that replay, deletes them with it.

// WriteJSONLine writes v as one newline-delimited JSON line.
func WriteJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// DecodeRequest parses one JSON request line.
func DecodeRequest(line []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}
