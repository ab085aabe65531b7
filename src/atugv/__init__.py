"""Motion planning and simulation for affine-transformable multi-cell
ground vehicles."""
