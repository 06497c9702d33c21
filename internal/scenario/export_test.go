package scenario

// ProbeFieldNames lets the external tests arm every probe field the table
// defines.
var ProbeFieldNames = probeFieldNames
