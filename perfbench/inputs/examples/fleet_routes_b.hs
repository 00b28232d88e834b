% Fleet corpus example B. The "routes" block below is byte-identical
% in fleet_routes_a.hs and fleet_routes_b.hs: identical library text
% means identical cone fingerprints, so `hornsafe fleet` workers
% analyzing the two programs share the route/3 verdicts through one
% --cache-dir (cross-program, cross-process cache hits).

% --- shared routes library ------------------------------------------
.infinite successor/2.
.fd successor: 1 -> 2.
.fd successor: 2 -> 1.
.mono successor: 2 > 1.

link(hub, north).
link(north, ridge).
link(ridge, summit).

route(X, Y, 1) :- link(X, Y).
route(X, Y, J) :- link(X, Z), route(Z, Y, I), successor(I, J).
% --- end shared routes library --------------------------------------

scenic(X, J) :- route(X, summit, J), link(X, north).

?- route(hub, Y, 2).
?- scenic(hub, 3).
