package interp

// ConvergedTail exposes the golden tail the last run of ip did not
// execute (0 unless it reconverged) to the external convergence test.
func ConvergedTail(ip *Interp) int64 { return ip.convTail }
