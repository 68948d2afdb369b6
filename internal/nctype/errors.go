package nctype

import "errors"

// Error vocabulary shared by the serial and parallel netCDF libraries. The
// names follow the netCDF C library's NC_E* codes so users migrating from
// the C API can recognize failure modes.
var (
	ErrExists         = errors.New("netcdf: file exists and NoClobber set")
	ErrInDefine       = errors.New("netcdf: operation not allowed in define mode")
	ErrNotInDefine    = errors.New("netcdf: operation requires define mode")
	ErrInvalidArg     = errors.New("netcdf: invalid argument")
	ErrPerm           = errors.New("netcdf: write to read-only dataset")
	ErrNotVar         = errors.New("netcdf: variable not found")
	ErrNotDim         = errors.New("netcdf: dimension not found")
	ErrNotAtt         = errors.New("netcdf: attribute not found")
	ErrBadName        = errors.New("netcdf: invalid name")
	ErrBadType        = errors.New("netcdf: invalid data type")
	ErrBadDim         = errors.New("netcdf: invalid dimension ID or size")
	ErrUnlimPos       = errors.New("netcdf: unlimited dimension must be first (most significant)")
	ErrMaxDims        = errors.New("netcdf: too many dimensions")
	ErrMaxVars        = errors.New("netcdf: too many variables")
	ErrMaxAttrs       = errors.New("netcdf: too many attributes")
	ErrNameInUse      = errors.New("netcdf: name already in use")
	ErrMultiUnlimited = errors.New("netcdf: only one unlimited dimension allowed")
	ErrEdge           = errors.New("netcdf: start+count exceeds dimension bound")
	ErrStride         = errors.New("netcdf: illegal stride")
	ErrNotNC          = errors.New("netcdf: not a netCDF file")
	ErrVersion        = errors.New("netcdf: unsupported netCDF version")
	ErrVarSize        = errors.New("netcdf: variable too large for format")
	ErrClosed         = errors.New("netcdf: dataset is closed")
	ErrCountMismatch  = errors.New("netcdf: buffer length does not match edge counts")
	ErrTypeMismatch   = errors.New("netcdf: buffer element type incompatible with request")

	// Parallel-specific errors.
	ErrConsistency = errors.New("pnetcdf: define-mode arguments differ across processes")
	ErrIndepMode   = errors.New("pnetcdf: collective call while in independent data mode")
	ErrCollMode    = errors.New("pnetcdf: independent call while in collective data mode")
	ErrNullComm    = errors.New("pnetcdf: nil communicator")
	ErrPending     = errors.New("pnetcdf: variable has a pending nonblocking write; call WaitAll before reading")
	ErrOverlap     = errors.New("pnetcdf: overlapping nonblocking requests")
)
