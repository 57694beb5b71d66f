// Package use calls into package lib the ways the check must see. It
// sits outside internal/, so its own exports are not checked.
package use

import (
	"fmt"

	"fixture/internal/lib"
)

// Run exercises lib.
func Run() {
	sq := lib.Square{Side: 2}
	var sh lib.Shape = sq
	fmt.Println(sh.Area(), sq)
	if b, ok := any(&sq).(interface{ Bound() int64 }); ok {
		fmt.Println(b.Bound())
	}
	fmt.Println(lib.NewBox(1).Get())
	lib.Used()
	lib.Stale()
}
