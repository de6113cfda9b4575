"""Maze generation, solving, and the ASCII codec round trip.

Run: python demos/03_maze.py
"""
from puzzletext import generate_maze, parse_maze, render_maze, solve_maze, validate_path

# Seeded recursive backtracking gives a perfect maze: exactly one path
# between any two cells. Entry is top-left, exit bottom-right with an
# opening in the outer south wall.
maze = generate_maze(rng_seed=42, width=5, height=5)
print("unsolved:")
print(render_maze(maze))
print()

# Breadth-first search finds a shortest path, on a perfect maze the only
# one. The path is written with arrow tokens in the cells it enters; "**"
# marks the entry.
path = solve_maze(maze)
print("solved, path of", len(path), "steps:", " ".join(path))
print(render_maze(maze, path))
print()

# The codec is invertible: parsing a render recovers walls and path.
text = render_maze(maze, path)
parsed_maze, parsed_path = parse_maze(text)
print("walls recovered:", parsed_maze == maze)
print("path recovered:", parsed_path == path)
print("path verdict:", validate_path(parsed_maze, parsed_path).kind)
