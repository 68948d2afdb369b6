package mpi

import "strconv"

// Info is a set of (key, value) string hints, mirroring MPI_Info. A nil
// *Info behaves like MPI_INFO_NULL: all lookups miss.
type Info struct {
	kv map[string]string
}

// NewInfo returns an empty hint set.
func NewInfo() *Info { return &Info{kv: map[string]string{}} }

// Set stores a hint, replacing any previous value.
func (i *Info) Set(key, value string) *Info {
	if i.kv == nil {
		i.kv = map[string]string{}
	}
	i.kv[key] = value
	return i
}

// Get returns the value for key and whether it was present.
func (i *Info) Get(key string) (string, bool) {
	if i == nil || i.kv == nil {
		return "", false
	}
	v, ok := i.kv[key]
	return v, ok
}

// GetInt parses the hint as an integer, returning def when absent or
// malformed (hints are advisory; malformed ones are ignored, as in ROMIO).
func (i *Info) GetInt(key string, def int64) int64 {
	s, ok := i.Get(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return def
	}
	return v
}

// GetBool interprets "true"/"enable"/"1" as true and "false"/"disable"/"0"
// as false, returning def otherwise.
func (i *Info) GetBool(key string, def bool) bool {
	s, ok := i.Get(key)
	if !ok {
		return def
	}
	switch s {
	case "true", "enable", "1", "yes":
		return true
	case "false", "disable", "0", "no":
		return false
	}
	return def
}

// Clone copies the hint set; a nil receiver yields an empty set.
func (i *Info) Clone() *Info {
	n := NewInfo()
	if i != nil {
		for k, v := range i.kv {
			n.kv[k] = v
		}
	}
	return n
}
