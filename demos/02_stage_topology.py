"""How the planner decides which object to finish first.

Goals near the opening would block the placing tunnels of goals deeper in
the workspace, so deep goals are finished first (the longitude heuristic),
and explicit goal-vs-goal blockings add ordering edges on top.
"""

from shelfplan import Point, make_scene
from shelfplan.topology import build_dependency_graph, stage_order

scene = make_scene(
    start=[Point(3, 3), Point(17, 3), Point(3, 17), Point(17, 17)],
    goal=[Point(10, 4), Point(10, 16), Point(16, 10), Point(4, 10)],
)

graph = build_dependency_graph(scene)
print("goal depths (y):", [p.y for p in scene.goal])
print("dependency edges (blocked -> blocker):", sorted(graph.edges))

order = stage_order(graph, scene)
print("stage order:", order)

print("\nObject 0's goal (10, 4) sits right in front of object 1's goal (10, 16),")
print("so object 0 must be finished last among the two; the remaining ties are")
print("broken by goal depth, deepest first.")
