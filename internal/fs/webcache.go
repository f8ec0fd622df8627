package fs

// WebCache is the SPIN web server's hybrid caching policy (paper §5.4):
// LRU caching for small files, no caching for large files (which tend to be
// accessed infrequently), and — because the large-file path reads through
// the file system's *non-caching* interface — no double buffering either.
//
// It implements netstack.HTTPContent (Get), so it plugs directly under the
// in-kernel HTTP server extension.
type WebCache struct {
	fs *FileSystem
	// LargeThreshold divides small (cached) from large (uncached) files.
	LargeThreshold int
	// capacity bounds the object cache in bytes.
	capacity int
	used     int
	objects  map[string][]byte
	order    []string // LRU, front = oldest

	// Hits/Misses/LargeReads expose policy behaviour.
	Hits, Misses, LargeReads int64
}

// NewWebCache builds the hybrid cache over fs with the given object-cache
// capacity in bytes.
func NewWebCache(fs *FileSystem, capacityBytes, largeThreshold int) *WebCache {
	return &WebCache{
		fs:             fs,
		LargeThreshold: largeThreshold,
		capacity:       capacityBytes,
		objects:        make(map[string][]byte),
	}
}

// Get implements the content lookup: small files come from (and populate)
// the object cache; large files stream through the non-caching read path.
func (w *WebCache) Get(path string) ([]byte, bool) {
	if body, ok := w.objects[path]; ok {
		w.Hits++
		w.touch(path)
		return body, true
	}

	size, err := w.fs.Size(path)
	if err != nil {
		return nil, false
	}
	if size > w.LargeThreshold {
		// Large: no-cache policy, non-caching read path (no double
		// buffering with the buffer cache).
		body, err := w.fs.ReadUncached(path)
		if err != nil {
			return nil, false
		}
		w.LargeReads++
		return body, true
	}
	body, err := w.fs.Read(path)
	if err != nil {
		return nil, false
	}
	w.Misses++
	w.insert(path, body)
	return body, true
}

// insert adds a small object, evicting LRU entries to fit.
func (w *WebCache) insert(path string, body []byte) {
	if len(body) > w.capacity {
		return
	}
	for w.used+len(body) > w.capacity && len(w.order) > 0 {
		oldest := w.order[0]
		w.order = w.order[1:]
		w.used -= len(w.objects[oldest])
		delete(w.objects, oldest)
	}
	w.objects[path] = body
	w.used += len(body)
	w.order = append(w.order, path)
}

// touch refreshes recency.
func (w *WebCache) touch(path string) {
	for i, x := range w.order {
		if x == path {
			w.order = append(w.order[:i], w.order[i+1:]...)
			w.order = append(w.order, path)
			return
		}
	}
}

// Cached reports whether path is resident in the object cache.
func (w *WebCache) Cached(path string) bool {
	_, ok := w.objects[path]
	return ok
}

// UsedBytes reports resident object bytes.
func (w *WebCache) UsedBytes() int {
	return w.used
}
