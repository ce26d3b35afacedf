package dataset

import (
	"bufio"
	"bytes"
	"os"
	"strings"
)

// ReadPath loads a dataset file into a repository, dispatching on
// content and extension. Files that begin with the EPFB magic decode
// straight into columns. Otherwise a ".json" suffix selects the JSON
// codec and anything else the CSV codec, whose results are copied into
// columns. Either way result views materialize lazily.
func ReadPath(path string) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, _ := br.Peek(len(binaryMagic))
	if bytes.Equal(head, binaryMagic[:]) {
		// Binary corpora are decoded from memory: the decoder
		// pre-sizes every column from the chunk framing and slices
		// section payloads in place. Pre-sizing the read buffer from
		// the file length avoids growth copies on the way in.
		size := 0
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			size = int(st.Size())
		}
		buf := bytes.NewBuffer(make([]byte, 0, size+1))
		if _, err := buf.ReadFrom(br); err != nil {
			return nil, err
		}
		cs, err := ReadColumnsBytes(buf.Bytes())
		if err != nil {
			return nil, err
		}
		return NewColumnRepository(cs), nil
	}
	var results []*Result
	if strings.HasSuffix(path, ".json") {
		results, err = ReadJSON(br)
	} else {
		results, err = ReadCSV(br)
	}
	if err != nil {
		return nil, err
	}
	return NewRepository(results), nil
}
