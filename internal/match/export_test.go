package match

// BuildStarTable lets the external table-oracle test build tables
// directly: it draws its queries from internal/datagen, which imports
// this package.
var BuildStarTable = buildStarTable
