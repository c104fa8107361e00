// Package badimport is a load-error fixture: it imports a path that is
// neither in the module nor in GOROOT, so loading it must fail with an
// error naming that path.
package badimport

import "example.invalid/nosuch"

var _ = nosuch.Value
