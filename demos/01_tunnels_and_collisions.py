"""Swept-volume tunnels and collision checks, step by step.

The robot waits in front of the single opening and can only reach into the
workspace along straight lines. Every pick or place therefore sweeps a tilted
rectangular tunnel, and an object is reachable exactly when its tunnel is
free of other objects.
"""

from shelfplan import Action, Point, action_valid, make_scene
from shelfplan.geometry import Disc, tunnel_intersects_disc, tunnel_to
from shelfplan.motion import collision_objs

# A tunnel is aimed at its target and overshoots it by one object radius so
# the far end covers the whole footprint.
t = tunnel_to(target=Point(3, 4), anchor=Point(0, 0), object_radius=1.0, tunnel_width=4.0)
print(
    f"tunnel to (3,4): length={t.length:.3f} (=5+1), "
    f"direction=({t.direction.x:.1f}, {t.direction.y:.1f}) (=(3,4)/5)"
)

print("\ndisc on the spine     ->", tunnel_intersects_disc(t, Disc(Point(1.5, 2.0), 1.0)))
print("disc far to the side  ->", tunnel_intersects_disc(t, Disc(Point(8.0, 0.0), 1.0)))

# Two objects lined up with the robot home: the front one seals the rear one in.
scene = make_scene(
    start=[Point(10, 5), Point(10, 12)],
    goal=[Point(4, 5), Point(16, 12)],
)
print(f"\nscene: home={scene.robot_home}, objects at {scene.start[0]} and {scene.start[1]}")

# collision_objs takes the tunnels' targets: one call checks every leg given.
rear_pick = scene.start[1]
print("who blocks the rear object's pickup tunnel?",
      collision_objs(scene, scene.start, {0}, rear_pick))
print("...or either leg of moving it to (16, 5)?   ",
      collision_objs(scene, scene.start, {0}, rear_pick, Point(16, 5)))

move_rear = Action(1, scene.start[1], Point(16, 5))
move_front = Action(0, scene.start[0], Point(16, 5))
print("move the rear object first :", action_valid(scene, scene.start, move_rear))
print("move the front object first:", action_valid(scene, scene.start, move_front))
print("\nThe planner has to clear the front object out of the corridor before")
print("it can ever grasp the rear one; that ordering problem is what the")
print("multi-stage search solves.")
