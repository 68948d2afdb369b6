package netcdf

import (
	"fmt"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// RenameDim renames a dimension. In data mode the new name must not make
// the header longer than its current on-disk size (classic rule); in define
// mode any valid new name is accepted.
func (d *Dataset) RenameDim(dimid int, newName string) error {
	if d.closed {
		return nctype.ErrClosed
	}
	if d.ro {
		return nctype.ErrPerm
	}
	if dimid < 0 || dimid >= len(d.hdr.Dims) {
		return nctype.ErrNotDim
	}
	if err := cdf.CheckName(newName); err != nil {
		return err
	}
	if i := d.hdr.FindDim(newName); i >= 0 && i != dimid {
		return fmt.Errorf("%w: dimension %q", nctype.ErrNameInUse, newName)
	}
	if !d.define && len(newName) > len(d.hdr.Dims[dimid].Name) {
		return nctype.ErrNotInDefine
	}
	d.hdr.RenameDim(dimid, newName)
	if !d.define {
		return d.writeHeader()
	}
	return nil
}

// RenameVar renames a variable under the same rules as RenameDim.
func (d *Dataset) RenameVar(varid int, newName string) error {
	if d.closed {
		return nctype.ErrClosed
	}
	if d.ro {
		return nctype.ErrPerm
	}
	if varid < 0 || varid >= len(d.hdr.Vars) {
		return nctype.ErrNotVar
	}
	if err := cdf.CheckName(newName); err != nil {
		return err
	}
	if i := d.hdr.FindVar(newName); i >= 0 && i != varid {
		return fmt.Errorf("%w: variable %q", nctype.ErrNameInUse, newName)
	}
	if !d.define && len(newName) > len(d.hdr.Vars[varid].Name) {
		return nctype.ErrNotInDefine
	}
	d.hdr.RenameVar(varid, newName)
	if !d.define {
		return d.writeHeader()
	}
	return nil
}

// RenameAttr renames an attribute of varid (or GlobalID).
func (d *Dataset) RenameAttr(varid int, oldName, newName string) error {
	if d.closed {
		return nctype.ErrClosed
	}
	if d.ro {
		return nctype.ErrPerm
	}
	attrs, err := d.attrsOf(varid)
	if err != nil {
		return err
	}
	if err := cdf.CheckName(newName); err != nil {
		return err
	}
	i := cdf.FindAttr(*attrs, oldName)
	if i < 0 {
		return fmt.Errorf("%w: %q", nctype.ErrNotAtt, oldName)
	}
	if j := cdf.FindAttr(*attrs, newName); j >= 0 && j != i {
		return fmt.Errorf("%w: attribute %q", nctype.ErrNameInUse, newName)
	}
	if !d.define && len(newName) > len(oldName) {
		return nctype.ErrNotInDefine
	}
	(*attrs)[i].Name = newName
	if !d.define {
		return d.writeHeader()
	}
	return nil
}
