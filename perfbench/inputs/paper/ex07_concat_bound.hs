% Example 7 of the paper: list concatenation through the cons
% function symbol (flattened by Algorithm 1 into an infinite relation
% with constructor finiteness dependencies).
concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
concat([], Z, Z).

?- concat(A, B, [1,2,3]).
