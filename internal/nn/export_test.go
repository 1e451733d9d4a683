package nn

// ConvDirect exposes the direct-formula oracle to the external tests
// that drive it with the model zoo's deployed shapes.
var ConvDirect = convDirect
