# Runs one command of the lcdc CLI (or a bench binary) and checks the
# contract it keeps.
#
#   cmake -DWORKDIR=<dir> -P contract.cmake -- [KEEP] [EXIT <code>]
#         [MATCH <regex>...] [NOMATCH <regex>...]
#         [BOUND <regex> <comparison> <limit>]...
#         [EXISTS <path>...] [EMPTY <dir>...] [FILTER <regex>]
#         RUN <program> <arg>... [DIFF <program> <arg>...]
#
# The command runs inside WORKDIR, which is emptied first unless KEEP is
# given (the second step of a fixture).  Its exit status must equal EXIT
# (default 0).  Every MATCH regex must match a line of its output (stdout
# and stderr), and no NOMATCH regex may.  A BOUND regex's first capture
# group must pass if(<capture> <comparison> <limit>), e.g. LESS.
# Afterwards the EXISTS paths must exist and the EMPTY directories must
# exist and be empty.
# With DIFF the second command runs too, expecting the same status, and
# the two outputs must be identical once lines matching FILTER are dropped.

cmake_minimum_required(VERSION 3.16)

# Everything after `--`; RUN and DIFF take the rest of the line.
set(i 0)
while(i LESS CMAKE_ARGC AND NOT CMAKE_ARGV${i} STREQUAL "--")
  math(EXPR i "${i} + 1")
endwhile()
math(EXPR i "${i} + 1")
set(keywords KEEP EXIT MATCH NOMATCH BOUND EXISTS EMPTY FILTER RUN DIFF)
set(key "")
while(i LESS CMAKE_ARGC)
  set(arg "${CMAKE_ARGV${i}}")
  if(arg IN_LIST keywords
     AND NOT (key STREQUAL "RUN" AND NOT arg STREQUAL "DIFF")
     AND NOT key STREQUAL "DIFF")
    set(key "${arg}")
    set(${key} "")
  else()
    list(APPEND ${key} "${arg}")
  endif()
  math(EXPR i "${i} + 1")
endwhile()
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

if(NOT DEFINED KEEP)
  file(REMOVE_RECURSE "${WORKDIR}")
endif()
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_checked out_var)
  string(REPLACE ";" " " shown "${ARGN}")
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message("$ ${shown}\n${out}")
  if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR "exit status ${rc}, want ${EXIT}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_checked(out ${RUN})
string(REPLACE "\n" ";" lines "${out}")

foreach(re IN LISTS MATCH)
  set(hits "${lines}")
  list(FILTER hits INCLUDE REGEX "${re}")
  if(NOT hits)
    message(FATAL_ERROR "no output line matches '${re}'")
  endif()
endforeach()
foreach(re IN LISTS NOMATCH)
  set(hits "${lines}")
  list(FILTER hits INCLUDE REGEX "${re}")
  if(hits)
    message(FATAL_ERROR "forbidden line: ${hits}")
  endif()
endforeach()

while(BOUND)
  list(POP_FRONT BOUND re op limit)
  if(NOT out MATCHES "${re}")
    message(FATAL_ERROR "no value for bound '${re}'")
  endif()
  message("bound: ${CMAKE_MATCH_1} ${op} ${limit}")
  if(NOT CMAKE_MATCH_1 ${op} limit)
    message(FATAL_ERROR "bound violated: ${CMAKE_MATCH_1} not ${op} ${limit}")
  endif()
endwhile()

foreach(path IN LISTS EXISTS)
  if(NOT EXISTS "${WORKDIR}/${path}")
    message(FATAL_ERROR "missing after the run: ${path}")
  endif()
endforeach()
foreach(dir IN LISTS EMPTY)
  file(GLOB left LIST_DIRECTORIES true "${WORKDIR}/${dir}/*")
  if(NOT IS_DIRECTORY "${WORKDIR}/${dir}" OR left)
    message(FATAL_ERROR "${dir} is not an empty directory: ${left}")
  endif()
endforeach()

if(DIFF)
  run_checked(second ${DIFF})
  string(REPLACE "\n" ";" second_lines "${second}")
  if(DEFINED FILTER)
    list(FILTER lines EXCLUDE REGEX "${FILTER}")
    list(FILTER second_lines EXCLUDE REGEX "${FILTER}")
  endif()
  if(NOT lines STREQUAL second_lines)
    string(REPLACE ";" "\n" lines "${lines}")
    string(REPLACE ";" "\n" second_lines "${second_lines}")
    message(FATAL_ERROR "outputs differ after filtering:\n"
                        "${lines}\n--- versus ---\n${second_lines}")
  endif()
endif()
