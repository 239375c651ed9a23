package passage

// TransientOracle exposes the Eq. (6)–(7) oracle to the external test
// package, whose tests load models through the hydra facade.
var TransientOracle = transientOracle
