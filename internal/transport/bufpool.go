package transport

import (
	"bufio"
	"io"
	"sync"
)

// Connection buffers come from two pools. A client holds its reader and
// writer for one operation (Client.buffers, Client.release), a served
// connection its writer and its request reader for its life, so a
// dial-fetch-close cycle takes no fresh 4 KiB buffers once the pools are
// warm.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putReader returns a reader to the pool; unread bytes are dropped.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putWriter returns a writer to the pool; unflushed bytes are dropped.
func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}
