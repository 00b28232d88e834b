% Example 1 of the paper: ancestor with generation counting.
% successor/2 is computable (J = I + 1); declare its constraints for
% the static analysis (the engine re-registers them automatically).
.infinite successor/2.
.fd successor: 1 -> 2.
.fd successor: 2 -> 1.
.mono successor: 2 > 1.

parent(cain, adam).
parent(abel, adam).
parent(cain, eve).
parent(abel, eve).
parent(sem, abel).

ancestor(X, Y, 1) :- parent(X, Y).
ancestor(X, Y, J) :- parent(X, Z), ancestor(Z, Y, I), successor(I, J).

?- ancestor(sem, Y, 2).
